import random
import time
from itertools import combinations

import pytest

from oracles import (all_families, brute_min_cover_bipartite, brute_sdr_exists, connected_without,
                     edmonds_karp, family_to_graph, graph_to_family, hall_via_menger)
from transversal import _bitmatch, core, graphs
from transversal.errors import ValidationError


class TestConversions:
    def test_family_to_graph_edges(self):
        f = core.SetFamily([1, 2], [[1, 2], [2]])
        g = family_to_graph(f)
        assert set(g.edges) == {(0, 1), (0, 2), (1, 2)}

    def test_empty_family(self):
        g = family_to_graph(core.SetFamily([1], []))
        assert g.part_a == () and g.part_b == (1,)

    def test_matrix_support_sets(self):
        # support sets of [[1,0],[1,1]] over columns c1, c2
        f = core.SetFamily(["c1", "c2"], [["c1"], ["c1", "c2"]])
        g = family_to_graph(f)
        assert set(g.edges) == {(0, "c1"), (1, "c1"), (1, "c2")}

    def test_round_trip(self):
        f = core.SetFamily(["a", "b", "c"], [["a", "c"], [], ["b"]])
        assert graph_to_family(family_to_graph(f)) == f


def complete_bipartite(na, nb):
    a = [f"a{i}" for i in range(na)]
    b = [f"b{i}" for i in range(nb)]
    return graphs.BipartiteGraph(a, b, [(x, y) for x in a for y in b])


def six_cycle():
    return graphs.BipartiteGraph(
        ["a0", "a1", "a2"],
        ["b0", "b1", "b2"],
        [("a0", "b0"), ("a0", "b2"), ("a1", "b0"), ("a1", "b1"), ("a2", "b1"), ("a2", "b2")],
    )


class TestMatching:
    def test_complete_three(self):
        m = graphs.max_matching(complete_bipartite(3, 3))
        assert m[1]["size"] == len(m[1]["edges"]) == 3 and m[2] == "matching of size 3"

    def test_shared_endpoint(self):
        g = graphs.BipartiteGraph(["a1", "a2"], ["b1"], [("a1", "b1"), ("a2", "b1")])
        assert len(graphs.max_matching(g)[1]["edges"]) == 1

    def test_six_cycle_perfect(self):
        assert len(graphs.max_matching(six_cycle())[1]["edges"]) == 3

    def test_hopcroft_karp_long_chain(self):
        # Row i meets columns i and i + 1 and a last row meets column 0
        # only.  That last row has one column, so the Karp-Sipser start
        # settles the whole chain and no augmenting path runs; the engine's
        # own test_long_augmenting_path runs the 1500-step path.
        n = 1500
        a = list(range(n + 1))
        b = [f"b{j}" for j in range(n + 1)]
        edges = [(i, b[j]) for i in range(n) for j in (i, i + 1)] + [(n, b[0])]
        g = graphs.BipartiteGraph(a, b, edges)
        fast = graphs.max_matching(g)[1]
        assert len(fast["edges"]) == n + 1
        assert graphs.verify_matching(g, fast) == (True, None)


class TestKonig:
    def test_star(self):
        g = graphs.BipartiteGraph(["a1", "a2", "a3"], ["b"], [("a1", "b"), ("a2", "b"), ("a3", "b")])
        payload = graphs.konig_cover(g)[1]
        assert len(payload["matching"]) == 1
        assert payload["cover"] == {"partA": [], "partB": ["b"]}

    def test_six_cycle(self):
        payload = graphs.konig_cover(six_cycle())[1]
        cover = payload["cover"]
        assert len(payload["matching"]) == 3 and len(cover["partA"]) + len(cover["partB"]) == 3

    def test_doubled_singleton_family(self):
        g = family_to_graph(core.SetFamily([1], [[1], [1]]))
        payload = graphs.konig_cover(g)[1]
        assert len(payload["matching"]) == 1
        assert payload["cover"] == {"partA": [], "partB": [1]}

    def test_cover_validates_small_exhaustive(self):
        for edge_bits in range(1 << 9):
            edges = [
                (a, f"b{b}")
                for k, (a, b) in enumerate((a, b) for a in range(3) for b in range(3))
                if (edge_bits >> k) & 1
            ]
            g = graphs.BipartiteGraph(range(3), [f"b{j}" for j in range(3)], edges)
            payload = graphs.konig_cover(g)[1]
            assert graphs.verify_cover(g, payload) == (True, None)  # one size for both sides
            adj = [0] * 3
            for a, b in edges:
                adj[a] |= 1 << int(b[1:])
            assert payload["size"] == brute_min_cover_bipartite(adj, 3, 3)


def validate_menger(g, s, t, mode, payload):
    paths, cut = payload["paths"], payload["cut"]
    assert payload["count"] == len(paths)
    seen_edges = set()
    seen_inner = set()
    for path in paths:
        assert path[0] == s and path[-1] == t
        assert len(set(path)) == len(path)
        for u, v in zip(path, path[1:]):
            assert g.adjacent(u, v)
            key = frozenset((u, v))
            assert key not in seen_edges
            seen_edges.add(key)
        if mode == "vertex":
            for v in path[1:-1]:
                assert v not in seen_inner
                seen_inner.add(v)
    if mode == "edge":
        assert not connected_without(g.vertices, g.edges, s, t, removed_edges=cut)
    else:
        assert not connected_without(g.vertices, g.edges, s, t, removed_vertices=cut)
    assert len(paths) == len(cut)


class TestMenger:
    def test_three_disjoint_paths(self):
        g = graphs.Graph("satbc", [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("s", "c"), ("c", "t")])
        for mode in ("vertex", "edge"):
            payload = graphs.menger_paths(g, "s", "t", mode)[1]
            assert len(payload["paths"]) == 3
            validate_menger(g, "s", "t", mode, payload)

    def test_k4_edge_mode(self):
        g = graphs.Graph("abcd", [(u, v) for u, v in combinations("abcd", 2)])
        payload = graphs.menger_paths(g, "a", "d", "edge")[1]
        assert len(payload["paths"]) == 3
        validate_menger(g, "a", "d", "edge", payload)
        # brute-force edge cut: no smaller edge set disconnects
        for k in range(3):
            for removed in combinations(g.edges, k):
                assert connected_without(g.vertices, g.edges, "a", "d", removed_edges=removed)

    def test_disconnected(self):
        g = graphs.Graph("abcd", [("a", "b"), ("c", "d")])
        assert graphs.menger_paths(g, "a", "c", "edge") == (
            "found", {"paths": [], "cut": [], "count": 0}, "0 disjoint paths, cut of equal size")

    def test_same_endpoint_rejected(self):
        g = graphs.Graph("ab", [("a", "b")])
        with pytest.raises(ValidationError):
            graphs.menger_paths(g, "a", "a", "edge")

    def test_vertex_mode_rejects_adjacent(self):
        g = graphs.Graph("ab", [("a", "b")])
        with pytest.raises(ValidationError):
            graphs.menger_paths(g, "a", "b", "vertex")

    def test_random_instances(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(2, 7)
            vertices = list(range(n))
            edges = [e for e in combinations(vertices, 2) if rng.random() < 0.5]
            g = graphs.Graph(vertices, edges)
            s, t = rng.sample(vertices, 2)
            validate_menger(g, s, t, "edge", graphs.menger_paths(g, s, t, "edge")[1])
            if not g.adjacent(s, t):
                validate_menger(g, s, t, "vertex", graphs.menger_paths(g, s, t, "vertex")[1])


class TestMaxFlow:
    def test_single_edge(self):
        net = graphs.FlowNetwork("st", [("s", "t", 5)], "s", "t")
        status, payload, diagnostics = graphs.max_flow_min_cut(net)
        assert (status, diagnostics) == ("found", "maximum flow 5")
        assert payload["value"] == 5 and payload["cut"] == [["s", "t"]]
        assert graphs.verify_maxflow(net, payload) == (True, None)

    def test_diamond(self):
        net = graphs.FlowNetwork(
            "suvt",
            [("s", "u", 1), ("s", "v", 1), ("u", "t", 1), ("v", "t", 1)],
            "s",
            "t",
        )
        payload = graphs.max_flow_min_cut(net)[1]
        assert payload["value"] == 2
        assert sum(c for u, v, c in net.arcs if [u, v] in payload["cut"]) == 2
        assert graphs.verify_maxflow(net, payload) == (True, None)

    def test_zero_capacity(self):
        net = graphs.FlowNetwork("st", [("s", "t", 0)], "s", "t")
        payload = graphs.max_flow_min_cut(net)[1]
        assert payload["value"] == 0
        assert graphs.verify_maxflow(net, payload) == (True, None)

    def test_integrality_random(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(2, 6)
            nodes = list(range(n))
            arcs = []
            for u in nodes:
                for v in nodes:
                    if u != v and rng.random() < 0.4:
                        arcs.append((u, v, rng.randint(0, 9)))
            net = graphs.FlowNetwork(nodes, arcs, 0, n - 1)
            payload = graphs.max_flow_min_cut(net)[1]
            value = payload["value"]
            assert isinstance(value, int)
            assert all(isinstance(f, int) for _, _, f in payload["flow"])
            assert graphs.verify_maxflow(net, payload) == (True, None)
            assert sum(c for u, v, c in net.arcs if [u, v] in payload["cut"]) == value

    def test_duplicate_arc_rejected(self):
        with pytest.raises(ValidationError):
            graphs.FlowNetwork("st", [("s", "t", 1), ("s", "t", 2)], "s", "t")

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            graphs.FlowNetwork("st", [("s", "t", -1)], "s", "t")


def random_network(rng):
    """A network on nodes 0..n-1, source 0 and sink n-1, with zero
    capacities, antiparallel arcs, isolated endpoints and cut-off sinks
    mixed in."""
    n = rng.randint(2, 10)
    density = rng.choice((0.3, 0.5, 0.75))
    arcs = [
        (u, v, rng.choice((0, 1, 1, 2, rng.randint(1, 12), rng.randint(1, 12))))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < density
    ]
    shape = rng.random()
    if shape < 0.1:
        end = rng.choice((0, n - 1))
        arcs = [arc for arc in arcs if end not in arc[:2]]
    elif shape < 0.2:
        arcs = [arc for arc in arcs if arc[1] != n - 1]
    rng.shuffle(arcs)
    return n, arcs


def random_graph(rng):
    n = rng.randint(2, 10)
    edges = [e for e in combinations(range(n), 2) if rng.random() < rng.choice((0.2, 0.4, 0.7))]
    s, t = rng.sample(range(n), 2)
    return graphs.Graph(range(n), edges), s, t


class TestFlowEngine:
    """The shipped flow engine against `oracles.edmonds_karp`, the engine it
    replaced.  Per-arc flows and Menger paths may differ between the two; the
    value and the residual source side, and so every cut, may not."""

    def test_agrees_with_edmonds_karp(self):
        rng = random.Random(1970)
        kinds = dict.fromkeys(
            ("zero-capacity", "antiparallel", "no-flow", "isolated-end", "value-over-5"), 0
        )
        for _ in range(400):
            n, arcs = random_network(rng)
            value, _, reachable = graphs._edmonds_karp(n, arcs, 0, n - 1)
            ref_value, _, ref_reachable = edmonds_karp(n, arcs, 0, n - 1)
            assert (value, reachable) == (ref_value, ref_reachable), (n, arcs)
            net = graphs.FlowNetwork(range(n), arcs, 0, n - 1)
            assert graphs.verify_maxflow(net, graphs.max_flow_min_cut(net)[1]) == (True, None)
            pairs = {(u, v) for u, v, _ in arcs}
            ends = {x for pair in pairs for x in pair}
            kinds["zero-capacity"] += any(c == 0 for *_, c in arcs)
            kinds["antiparallel"] += any((v, u) in pairs for u, v in pairs)
            kinds["no-flow"] += value == 0
            kinds["isolated-end"] += 0 not in ends or n - 1 not in ends
            kinds["value-over-5"] += value > 5
        assert all(count >= 40 for count in kinds.values()), kinds

    def test_cuts_do_not_depend_on_the_engine(self, monkeypatch):
        rng = random.Random(1975)
        networks = [random_network(rng) for _ in range(300)]
        menger = [random_graph(rng) for _ in range(300)]

        def solve_all():
            flows = []
            for n, arcs in networks:
                payload = graphs.max_flow_min_cut(graphs.FlowNetwork(range(n), arcs, 0, n - 1))[1]
                flows.append((payload["value"], payload["cut"]))
            systems = []
            for g, s, t in menger:
                for mode in ("edge", "vertex"):
                    if mode == "edge" or not g.adjacent(s, t):
                        payload = graphs.menger_paths(g, s, t, mode)[1]
                        validate_menger(g, s, t, mode, payload)
                        systems.append((len(payload["paths"]), payload["cut"]))
            return flows, systems

        shipped = solve_all()
        monkeypatch.setattr(graphs, "_edmonds_karp", edmonds_karp)
        assert solve_all() == shipped
        assert sum(value > 0 for value, _ in shipped[0]) >= 150
        assert sum(count > 1 for count, _ in shipped[1]) >= 100

    def test_unit_network_at_scale(self):
        """2000 + 2000 nodes with four arcs out of each left node: the flow
        value is the size of a maximum matching of the same bipartite graph,
        found by the bipartite engine.  The reference takes about 5 s here."""
        n = 2000
        rng = random.Random(2000)
        masks = [0] * n
        arcs = [("s", f"a{i}", 1) for i in range(n)]
        for i in range(n):
            for j in rng.sample(range(n), 4):
                masks[i] |= 1 << j
                arcs.append((f"a{i}", f"b{j}", 1))
        arcs += [(f"b{j}", "t", 1) for j in range(n)]
        net = graphs.FlowNetwork(dict.fromkeys(x for arc in arcs for x in arc[:2]), arcs, "s", "t")
        start = time.perf_counter()
        payload = graphs.max_flow_min_cut(net)[1]
        assert time.perf_counter() - start < 1.5
        match_row, _ = _bitmatch.max_matching(masks, n)
        value = payload["value"]
        assert value == sum(c != _bitmatch.UNMATCHED for c in match_row) > 1900
        assert len(payload["cut"]) == value
        assert graphs.verify_maxflow(net, payload) == (True, None)


class TestHallViaMenger:
    def test_three_cycle(self):
        f = core.SetFamily([1, 2, 3], [[1, 2], [2, 3], [3, 1]])
        result = hall_via_menger(f)
        assert "reps" in result
        assert core.verify_sdr(f, result) == (True, None)

    def test_violator(self):
        f = core.SetFamily([1], [[1], [1]])
        result = hall_via_menger(f)
        assert result == {"indices": [0, 1], "union": [1]}
        assert core.verify_sdr(f, result) == (True, None)

    def test_empty(self):
        assert hall_via_menger(core.SetFamily([1], [])) == {"reps": []}

    def test_agrees_with_core_exhaustively(self):
        ground = (1, 2, 3)
        for n in range(4):
            for sets in all_families(n, ground):
                f = core.SetFamily(ground, sets)
                via_flow = hall_via_menger(f)
                assert ("reps" in via_flow) == brute_sdr_exists(sets)
                assert ("reps" in via_flow) == (core.hall_check(f)[0] == "found")
