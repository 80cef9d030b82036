"""Cross-checks against networkx at thousands of vertices.

networkx shares no code with the package, so agreeing sizes here are two
independent computations: the flow value and cut capacity of ``maxflow``,
the path counts of both ``menger`` modes against local connectivity, the
``matching`` and ``cover`` sizes against Hopcroft-Karp, and the ``dilworth``
chain count against a matching on networkx's transitive closure.
"""

import random
from itertools import combinations

import pytest

from transversal import graphs, posets

nx = pytest.importorskip("networkx")


def test_maxflow_value_and_cut():
    """Ten layers of 250 nodes, four arcs on from each, plus arcs in every
    direction between random nodes, antiparallel and zero-capacity ones
    included."""
    rng = random.Random(31)
    layers, width = 10, 250
    names = [[f"n{layer}_{i}" for i in range(width)] for layer in range(layers)]
    arcs = {}
    for i in range(width):
        arcs["s", names[0][i]] = rng.randint(5, 40)
        arcs[names[-1][i], "t"] = rng.randint(5, 40)
    for layer in range(layers - 1):
        for i in range(width):
            for j in rng.sample(range(width), 4):
                arcs[names[layer][i], names[layer + 1][j]] = rng.randint(0, 15)
    nodes = [x for row in names for x in row]
    while len(arcs) < 13000:
        u, v = rng.sample(nodes, 2)
        arcs[u, v] = rng.randint(0, 15)
    assert any((v, u) in arcs for u, v in arcs)
    net = graphs.FlowNetwork(["s", "t", *nodes], [(u, v, c) for (u, v), c in arcs.items()],
                             "s", "t")
    payload = graphs.max_flow_min_cut(net)[1]
    digraph = nx.DiGraph()
    digraph.add_edges_from((u, v, {"capacity": c}) for (u, v), c in arcs.items())
    expected = nx.maximum_flow_value(digraph, "s", "t")
    assert payload["value"] == expected > 0
    assert sum(arcs[u, v] for u, v in payload["cut"]) == expected
    assert graphs.verify_maxflow(net, payload) == (True, None)


def ring_with_chords(rng, n, degree):
    edges = {(i, (i + 1) % n) for i in range(n)}
    while len(edges) < n * degree // 2:
        u, v = rng.sample(range(n), 2)
        if (v, u) not in edges:
            edges.add((u, v))
    return graphs.Graph(range(n), sorted(edges))


def test_menger_counts_are_local_connectivity():
    rng = random.Random(32)
    g = ring_with_chords(rng, 2000, 8)
    graph = nx.Graph(g.edges)
    by_degree = sorted(g.vertices, key=graph.degree, reverse=True)
    pairs = [(by_degree[0], by_degree[1]), (by_degree[0], by_degree[-1])]
    pairs += [tuple(rng.sample(g.vertices, 2)) for _ in range(3)]
    connectivity = nx.algorithms.connectivity
    by_edges = connectivity.build_auxiliary_edge_connectivity(graph)
    by_nodes = connectivity.build_auxiliary_node_connectivity(graph)
    residual = nx.algorithms.flow.build_residual_network(by_nodes, "capacity")
    for s, t in pairs:
        payload = graphs.menger_paths(g, s, t, "edge")[1]
        expected = connectivity.local_edge_connectivity(graph, s, t, auxiliary=by_edges)
        assert len(payload["paths"]) == len(payload["cut"]) == expected > 1
        if not g.adjacent(s, t):
            payload = graphs.menger_paths(g, s, t, "vertex")[1]
            expected = connectivity.local_node_connectivity(graph, s, t, auxiliary=by_nodes,
                                                            residual=residual)
            assert len(payload["paths"]) == len(payload["cut"]) == expected


def test_matching_and_cover_sizes():
    rng = random.Random(33)
    n = 2000
    edges = [(i, f"b{j}") for i in range(n) for j in rng.sample(range(n), rng.randint(0, 3))]
    g = graphs.BipartiteGraph(range(n), [f"b{j}" for j in range(n)], edges)
    bipartite = nx.Graph(edges)
    bipartite.add_nodes_from(range(n))
    expected = len(nx.bipartite.hopcroft_karp_matching(bipartite, top_nodes=range(n))) // 2
    assert len(graphs.max_matching(g)[1]["edges"]) == expected
    payload = graphs.konig_cover(g)[1]
    cover = payload["cover"]
    assert len(payload["matching"]) == len(cover["partA"]) + len(cover["partB"]) == expected < n


def test_dilworth_width():
    """1500 elements in blocks of 30, each block a random order: the width
    is the element count less a maximum matching of the strict relation."""
    rng = random.Random(34)
    n, block = 1500, 30
    order = list(range(n))
    rng.shuffle(order)
    pairs = [
        (members[x], members[y])
        for start in range(0, n, block)
        for members in [order[start:start + block]]
        for x, y in combinations(range(block), 2)
        if rng.random() < 0.15
    ]
    payload = posets.dilworth(posets.Poset(range(n), pairs))[1]
    chains, antichain = payload["chains"], payload["antichain"]
    closure = nx.transitive_closure_dag(nx.DiGraph(pairs))
    split = nx.Graph((("low", u), ("high", v)) for u, v in closure.edges)
    split.add_nodes_from(("low", x) for x in range(n))
    lows = [("low", x) for x in range(n)]
    width = n - len(nx.bipartite.hopcroft_karp_matching(split, top_nodes=lows)) // 2
    assert len(chains) == len(antichain) == width < n
    assert not any(closure.has_edge(u, v) for u in antichain for v in antichain)
