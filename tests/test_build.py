"""The constructors read their labels in one bulk pass and walk the input
item by item only to name a refusal.  Every refusal must keep the message
and the field of the item-by-item reading, and every accepted input the
object it built."""

import random
from collections import namedtuple

import pytest

from transversal import core, graphs, posets
from transversal.errors import ValidationError


class Label(str):
    pass


G = ["a", "b", "c"]

# (case, build, message, field), the message and field as the item-by-item
# reading gave them.
REFUSALS = [
    ("family-string-set", lambda: core.SetFamily(G, [["a"], "ab"]),
     "sets[1] must be a list, not a string", "sets[1]"),
    ("family-string-subclass-set", lambda: core.SetFamily(G, [["a"], Label("ab")]),
     "sets[1] must be a list, not a string", "sets[1]"),
    ("family-unhashable", lambda: core.SetFamily(G, [["a"], ["b", ["c"]]]),
     "sets[1] must be a list of labels: unhashable type: 'list'", "sets[1]"),
    ("family-unknown", lambda: core.SetFamily(G, [["a"], ["b", "zz"]]),
     "sets[1] holds 'zz', which is not a label", "sets[1]"),
    ("family-not-iterable", lambda: core.SetFamily(G, [["a"], 7]),
     "sets[1] must be a list of labels: 'int' object is not iterable", "sets[1]"),
    ("family-ground-repeats", lambda: core.SetFamily(["a", "b", "a"], [["a"]]),
     "ground repeats 'a'", "ground"),
    ("family-ground-unhashable", lambda: core.SetFamily(["a", ["b"]], [["a"]]),
     "ground must be a list of labels: unhashable type: 'list'", "ground"),
    ("family-ground-generator", lambda: core.SetFamily((x for x in "aba"), [["a"]]),
     "ground repeats 'a'", "ground"),
    ("family-sets-generator", lambda: core.SetFamily(G, (s for s in [["a"], ["zz"]])),
     "sets[1] holds 'zz', which is not a label", "sets[1]"),
    ("family-set-generator", lambda: core.SetFamily(G, [["a"], iter(["b", "zz"])]),
     "sets[1] holds 'zz', which is not a label", "sets[1]"),
    ("bipartite-one-entry", lambda: graphs.BipartiteGraph(G, G, [["a", "b"], ["a"]]),
     "edge 1 is not an (a, b) pair: ['a']", "edges[1]"),
    ("bipartite-three-entries",
     lambda: graphs.BipartiteGraph(G, G, [["a", "b"], ["a", "b", "c"]]),
     "edge 1 is not an (a, b) pair: ['a', 'b', 'c']", "edges[1]"),
    ("bipartite-string-edge", lambda: graphs.BipartiteGraph(G, G, [["a", "b"], "ab"]),
     "edge 1 is not an (a, b) pair: 'ab'", "edges[1]"),
    ("bipartite-unhashable", lambda: graphs.BipartiteGraph(G, G, [["a", "b"], ["a", ["b"]]]),
     "bad edge 1: unhashable type: 'list'", "edges[1]"),
    ("bipartite-unknown-a", lambda: graphs.BipartiteGraph(G, G, [["a", "b"], ["zz", "b"]]),
     "edge endpoint 'zz' is not in partA", "edges[1]"),
    ("bipartite-unknown-b", lambda: graphs.BipartiteGraph(G, G, [["a", "b"], ["a", "zz"]]),
     "edge endpoint 'zz' is not in partB", "edges[1]"),
    ("bipartite-part-repeats", lambda: graphs.BipartiteGraph(["a", "a"], G, []),
     "partA repeats 'a'", "partA"),
    ("bipartite-part-unhashable", lambda: graphs.BipartiteGraph(G, [["x"]], []),
     "partB must be a list of labels: unhashable type: 'list'", "partB"),
    ("bipartite-generator",
     lambda: graphs.BipartiteGraph(G, G, (e for e in [["a", "b"], ["a", "zz"]])),
     "edge endpoint 'zz' is not in partB", "edges[1]"),
    ("bipartite-repeat-then-refusal",
     lambda: graphs.BipartiteGraph(G, G, [["a", "b"], ["a", "b"], ["c"]]),
     "edge 2 is not an (a, b) pair: ['c']", "edges[2]"),
    ("graph-one-entry", lambda: graphs.Graph(G, [["a", "b"], ["a"]]),
     "edge 1 is not a (u, v) pair: ['a']", "edges[1]"),
    ("graph-three-entries", lambda: graphs.Graph(G, [["a", "b"], ["a", "b", "c"]]),
     "edge 1 is not a (u, v) pair: ['a', 'b', 'c']", "edges[1]"),
    ("graph-string-edge", lambda: graphs.Graph(G, [["a", "b"], "ab"]),
     "edge 1 is not a (u, v) pair: 'ab'", "edges[1]"),
    ("graph-unhashable", lambda: graphs.Graph(G, [["a", "b"], [["a"], "b"]]),
     "bad edge 1: unhashable type: 'list'", "edges[1]"),
    ("graph-unknown", lambda: graphs.Graph(G, [["a", "b"], ["a", "zz"]]),
     "edge ['a', 'zz'] mentions an unknown vertex", "edges"),
    ("graph-loop", lambda: graphs.Graph(G, [["a", "b"], ["c", "c"]]),
     "loop at 'c' is not allowed", "edges"),
    ("graph-vertices-repeat", lambda: graphs.Graph(["a", "b", "b"], []),
     "vertices repeats 'b'", "vertices"),
    ("graph-generator",
     lambda: graphs.Graph(G, (e for e in [["a", "b"], ["b", "a"], ["c", "c"]])),
     "loop at 'c' is not allowed", "edges"),
    ("poset-one-entry", lambda: posets.Poset(G, [["a", "b"], ["a"]]),
     "['a'] is not a pair of elements", "less_than"),
    ("poset-three-entries", lambda: posets.Poset(G, [["a", "b"], ["a", "b", "c"]]),
     "['a', 'b', 'c'] is not a pair of elements", "less_than"),
    ("poset-string-pair", lambda: posets.Poset(G, [["a", "b"], "bzz"]),
     "'bzz' is not a pair of elements", "less_than"),
    ("poset-unhashable", lambda: posets.Poset(G, [["a", "b"], ["b", ["c"]]]),
     "['b', ['c']] is not a pair of elements", "less_than"),
    ("poset-unknown", lambda: posets.Poset(G, [["a", "b"], ["b", "zz"]]),
     "['b', 'zz'] is not a pair of elements", "less_than"),
    ("poset-elements-repeat", lambda: posets.Poset(["a", "a"], []),
     "elements repeats 'a'", "elements"),
    ("poset-generator", lambda: posets.Poset(G, (p for p in [["a", "b"], ["zz", "a"]])),
     "['zz', 'a'] is not a pair of elements", "less_than"),
    ("poset-cycle", lambda: posets.Poset(G, [["a", "b"], ["b", "c"], ["c", "a"]]),
     "relation has a cycle through 'a'", "less_than"),
    ("index-unhashable", lambda: core._index_labels(["a", {}], "labels"),
     "labels must be a list of labels: unhashable type: 'dict'", "labels"),
    ("index-repeat", lambda: core._index_labels(["a", "b", "a"], "labels"),
     "labels repeats 'a'", "labels"),
    ("index-equal-numbers", lambda: core._index_labels([1, 2, 1.0], "labels"),
     "labels repeats 1.0", "labels"),
    ("index-not-iterable", lambda: core._index_labels(5, "labels"),
     "labels must be a list of labels: 'int' object is not iterable", "labels"),
    ("index-generator", lambda: core._index_labels((x for x in "abca"), "labels"),
     "labels repeats 'a'", "labels"),
]


@pytest.mark.parametrize("build, message, field", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_refusal_named_as_by_the_walk(build, message, field):
    with pytest.raises(ValidationError) as info:
        build()
    assert (str(info.value), info.value.field) == (message, field)


Edge = namedtuple("Edge", "a b")


class TestAcceptedInput:
    def test_repeated_edges_keep_their_first_occurrence(self):
        g = graphs.BipartiteGraph(G, ["x", "y"], [["b", "y"], ("a", "x"), ["b", "x"],
                                                  ("b", "y"), ["a", "x"]])
        assert g.edges == (("b", "y"), ("a", "x"), ("b", "x"))
        assert g._cols == [[0], [0, 1], []]

    def test_edges_are_made_on_first_read(self):
        pairs = [["a", "x"], ["b", "x"]]
        g = graphs.BipartiteGraph(G, ["x"], pairs)
        pairs.append(["c", "x"])
        assert g._edges is None and g._cols == [[0], [0], []]
        assert g.edges == (("a", "x"), ("b", "x")) and g.edges is g.edges

    def test_equal_labels_are_one_vertex(self):
        g = graphs.BipartiteGraph([1, 2], ["x"], [[1, "x"], [True, "x"], [2.0, "x"]])
        assert g.edges == ((1, "x"), (2.0, "x")) and g._cols == [[0], [0]]

    def test_repeated_and_reversed_graph_edges(self):
        g = graphs.Graph(G, [["c", "a"], ["a", "b"], ["a", "c"], ("b", "a")])
        assert g.edges == (("a", "c"), ("a", "b"))
        assert g.adjacency_masks() == [0b110, 0b001, 0b001]

    def test_iterable_inputs(self):
        """Generators, tuples and list or tuple subclasses build what lists
        build."""
        lists = graphs.BipartiteGraph(G, G, [["a", "b"], ["c", "a"]])
        for edges in (lambda: (e for e in [["a", "b"], ["c", "a"]]),
                      lambda: (("a", "b"), ("c", "a")), lambda: [Edge("a", "b"), Edge("c", "a")]):
            g = graphs.BipartiteGraph(iter(G), tuple(G), edges())
            assert (g.part_a, g.part_b, g.edges, g._cols) == (
                lists.part_a, lists.part_b, lists.edges, lists._cols)
            assert graphs.Graph((x for x in G), edges()).edges == (("a", "b"), ("a", "c"))
        family = core.SetFamily(G, [["c", "a", "c"], ("b",)])
        for sets in ((s for s in [["c", "a", "c"], ("b",)]), [iter("cac"), {"b"}],
                     [Edge("c", "a"), frozenset("b")]):
            assert core.SetFamily(G, sets) == family
        assert family._cols == [[0, 2], [1]]

    def test_poset_pairs_of_any_kind(self):
        """A pair is anything that unpacks into two elements, a string of
        two one-letter elements too, as the item-by-item reading took it."""
        p = posets.Poset(G, ["ab", ("b", "c"), iter(["a", "b"])])
        assert p.lt("a", "c") and p.lt("b", "c") and not p.lt("c", "a")

    def test_bulk_build_matches_the_walk(self):
        """On random inputs, the bulk pass builds what reading the input
        item by item builds."""
        rng = random.Random(33)
        for _ in range(100):
            ground = [f"g{i}" for i in range(rng.randint(1, 12))]
            sets = [rng.choices(ground, k=rng.randint(0, 5)) for _ in range(rng.randint(0, 8))]
            family = core.SetFamily(ground, sets)
            index = {x: i for i, x in enumerate(ground)}
            assert family._cols == [sorted({index[x] for x in s}) for s in sets]
            edges = [[rng.choice(ground), rng.choice(ground)] for _ in range(rng.randint(0, 20))]
            g = graphs.BipartiteGraph(ground, ground, edges)
            assert g.edges == tuple(dict.fromkeys(map(tuple, edges)))
            assert g._cols == [sorted({index[b] for a, b in edges if a == x}) for x in ground]
