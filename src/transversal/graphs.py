"""Bipartite matching duality, disjoint path systems, and integer flows."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import _bitmatch, core
from .errors import ValidationError


def _index_labels(labels, field):
    index = {}
    for pos, x in enumerate(labels):
        if x in index:
            raise ValidationError(f"duplicate vertex {x!r} in {field}", field=field)
        index[x] = pos
    return index


class BipartiteGraph:
    """A graph on two ordered vertex parts, every edge joining them.

    The parts are independent namespaces: an edge is an (a, b) pair whose
    first entry names a part-A vertex and the second a part-B vertex, so a
    label may legitimately appear on both sides (set indices and ground
    elements often do).
    """

    __slots__ = ("part_a", "part_b", "edges", "_a_index", "_b_index", "_masks")

    def __init__(self, part_a, part_b, edges):
        part_a = tuple(part_a)
        part_b = tuple(part_b)
        a_index = _index_labels(part_a, "partA")
        b_index = _index_labels(part_b, "partB")
        masks = [0] * len(part_a)
        kept = []
        seen = set()
        for k, e in enumerate(edges):
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise ValidationError(f"edge {k} is not an (a, b) pair: {e!r}",
                                      field=f"edges[{k}]")
            a, b = e
            try:
                ia, ib = a_index.get(a), b_index.get(b)
            except TypeError as exc:
                raise ValidationError(f"bad edge {k}: {exc}", field=f"edges[{k}]") from exc
            if ia is None:
                raise ValidationError(f"edge endpoint {a!r} is not in partA", field=f"edges[{k}]")
            if ib is None:
                raise ValidationError(f"edge endpoint {b!r} is not in partB", field=f"edges[{k}]")
            if (a, b) in seen:
                continue
            seen.add((a, b))
            kept.append((a, b))
            masks[ia] |= 1 << ib
        self.part_a = part_a
        self.part_b = part_b
        self.edges = tuple(kept)
        self._a_index = a_index
        self._b_index = b_index
        self._masks = masks

    def has_edge(self, a, b) -> bool:
        ia = self._a_index.get(a)
        ib = self._b_index.get(b)
        return ia is not None and ib is not None and (self._masks[ia] >> ib) & 1 == 1

    def to_json(self) -> dict:
        return {
            "partA": list(self.part_a),
            "partB": list(self.part_b),
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BipartiteGraph":
        for key in ("partA", "partB", "edges"):
            if not isinstance(obj, dict) or key not in obj:
                raise ValidationError(f"graph file needs '{key}'", field=key)
        if not isinstance(obj["edges"], list):
            raise ValidationError("'edges' must be a list of pairs", field="edges")
        return cls(obj["partA"], obj["partB"], obj["edges"])


@dataclass(frozen=True)
class Matching:
    """Pairwise disjoint edges, stored in part-A order."""

    edges: tuple

    def __len__(self):
        return len(self.edges)


@dataclass(frozen=True)
class VertexCover:
    """Vertices meeting every edge, split by part."""

    in_a: tuple
    in_b: tuple

    def __len__(self):
        return len(self.in_a) + len(self.in_b)


class Graph:
    """A simple undirected graph over a single vertex namespace."""

    __slots__ = ("vertices", "edges", "_index", "_adj")

    def __init__(self, vertices, edges):
        vertices = tuple(vertices)
        index = _index_labels(vertices, "vertices")
        adj = [0] * len(vertices)
        kept = []
        seen = set()
        for e in edges:
            u, v = e
            if u not in index or v not in index:
                raise ValidationError(f"edge {e!r} mentions an unknown vertex", field="edges")
            if u == v:
                raise ValidationError(f"loop at {u!r} is not allowed", field="edges")
            iu, iv = index[u], index[v]
            key = (min(iu, iv), max(iu, iv))
            if key in seen:
                continue
            seen.add(key)
            kept.append((vertices[key[0]], vertices[key[1]]))
            adj[iu] |= 1 << iv
            adj[iv] |= 1 << iu
        self.vertices = vertices
        self.edges = tuple(kept)
        self._index = index
        self._adj = adj

    def adjacent(self, u, v) -> bool:
        return (self._adj[self._index[u]] >> self._index[v]) & 1 == 1

    def adjacency_masks(self) -> list[int]:
        return list(self._adj)

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        for key in ("vertices", "edges"):
            if not isinstance(obj, dict) or key not in obj:
                raise ValidationError(f"graph file needs '{key}'", field=key)
        return cls(obj["vertices"], [tuple(e) for e in obj["edges"]])


class FlowNetwork:
    """A directed network with nonnegative integer capacities."""

    __slots__ = ("nodes", "arcs", "source", "sink", "_index")

    def __init__(self, nodes, arcs, source, sink):
        nodes = tuple(nodes)
        index = _index_labels(nodes, "nodes")
        if source not in index:
            raise ValidationError(f"source {source!r} is not a node", field="source")
        if sink not in index:
            raise ValidationError(f"sink {sink!r} is not a node", field="sink")
        if source == sink:
            raise ValidationError("source and sink must differ", field="sink")
        kept = []
        seen = set()
        for arc in arcs:
            u, v, cap = arc
            if u not in index or v not in index:
                raise ValidationError(f"arc {arc!r} mentions an unknown node", field="edges")
            if u == v:
                raise ValidationError(f"self-arc at {u!r} is not allowed", field="edges")
            if isinstance(cap, bool) or not isinstance(cap, int) or cap < 0:
                raise ValidationError(
                    f"arc {u!r}->{v!r} needs a nonnegative integer capacity", field="edges"
                )
            if (u, v) in seen:
                raise ValidationError(f"duplicate arc {u!r}->{v!r}", field="edges")
            seen.add((u, v))
            kept.append((u, v, cap))
        self.nodes = nodes
        self.arcs = tuple(kept)
        self.source = source
        self.sink = sink
        self._index = index

    @classmethod
    def from_json(cls, obj: dict) -> "FlowNetwork":
        for key in ("edges", "source", "sink"):
            if not isinstance(obj, dict) or key not in obj:
                raise ValidationError(f"network file needs '{key}'", field=key)
        arcs = [tuple(e) for e in obj["edges"]]
        nodes = list(obj.get("nodes", []))
        seen = set(nodes)
        for arc in arcs:
            if len(arc) != 3:
                raise ValidationError("each edge must be [from, to, capacity]", field="edges")
            for x in arc[:2]:
                if x not in seen:
                    seen.add(x)
                    nodes.append(x)
        for x in (obj["source"], obj["sink"]):
            if x not in seen:
                seen.add(x)
                nodes.append(x)
        return cls(nodes, arcs, obj["source"], obj["sink"])


def family_to_graph(family: core.SetFamily) -> BipartiteGraph:
    """Bipartite view of a family: set indices on one side, ground on the other."""
    edges = []
    for i, members in enumerate(family.sets):
        for x in members:
            edges.append((i, x))
    return BipartiteGraph(range(family.n), family.ground, edges)


def graph_to_family(g: BipartiteGraph) -> core.SetFamily:
    """Inverse of family_to_graph: each part-A vertex becomes its neighbour set."""
    sets = []
    for a in g.part_a:
        mask = g._masks[g._a_index[a]]
        sets.append([g.part_b[p] for p in _bitmatch.bits_of(mask)])
    return core.SetFamily(g.part_b, sets)


def max_matching(g: BipartiteGraph, *, hopcroft_karp: bool = False) -> Matching:
    """A maximum matching; deterministic for a fixed input order."""
    match_row, _ = _bitmatch.max_matching(
        g._masks, len(g.part_b), hopcroft_karp=hopcroft_karp
    )
    edges = tuple(
        (g.part_a[i], g.part_b[c])
        for i, c in enumerate(match_row)
        if c != _bitmatch.UNMATCHED
    )
    return Matching(edges)


def konig_cover(g: BipartiteGraph) -> tuple[Matching, VertexCover]:
    """A maximum matching and a vertex cover of the same size.

    The cover is read off alternating reachability from the free part-A
    vertices; equality of the two sizes certifies that the matching is
    maximum and the cover minimum.
    """
    match_row, match_col = _bitmatch.max_matching(g._masks, len(g.part_b))
    free = [i for i, c in enumerate(match_row) if c == _bitmatch.UNMATCHED]
    rows, cols = _bitmatch.alternating_reachable(g._masks, match_row, match_col, free)
    in_a = tuple(
        g.part_a[i]
        for i in range(len(g.part_a))
        if match_row[i] != _bitmatch.UNMATCHED and i not in rows
    )
    in_b = tuple(g.part_b[c] for c in sorted(cols))
    matching = Matching(
        tuple(
            (g.part_a[i], g.part_b[c])
            for i, c in enumerate(match_row)
            if c != _bitmatch.UNMATCHED
        )
    )
    return matching, VertexCover(in_a=in_a, in_b=in_b)


def validate_matching(g: BipartiteGraph, matching: Matching) -> tuple[bool, str | None]:
    seen_a = set()
    seen_b = set()
    for a, b in matching.edges:
        if not g.has_edge(a, b):
            return False, f"({a!r},{b!r}) is not an edge of the graph"
        if a in seen_a or b in seen_b:
            return False, f"edges sharing a vertex at ({a!r},{b!r})"
        seen_a.add(a)
        seen_b.add(b)
    return True, None


def validate_cover(g: BipartiteGraph, cover: VertexCover) -> tuple[bool, str | None]:
    in_a = set(cover.in_a)
    in_b = set(cover.in_b)
    for a, b in g.edges:
        if a not in in_a and b not in in_b:
            return False, f"edge ({a!r},{b!r}) is uncovered"
    return True, None


# ---------------------------------------------------------------------------
# Integer max-flow (breadth-first augmentation) and its cut.


def _edmonds_karp(n_nodes, arcs, s, t):
    """Return (value, flow per arc, residual-reachable node set).

    ``arcs`` is a list of (u, v, capacity) triples over node indices; the
    search augments along breadth-first shortest paths, scanning arcs in
    input order, so the resulting flow is deterministic.
    """
    cap = []
    to = []
    head = [[] for _ in range(n_nodes)]
    for u, v, c in arcs:
        head[u].append(len(cap))
        cap.append(c)
        to.append(v)
        head[v].append(len(cap))
        cap.append(0)
        to.append(u)
    value = 0
    while True:
        parent_arc = [-1] * n_nodes
        parent_arc[s] = -2
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            for a in head[u]:
                v = to[a]
                if cap[a] > 0 and parent_arc[v] == -1:
                    parent_arc[v] = a
                    queue.append(v)
        if parent_arc[t] == -1:
            break
        bottleneck = None
        v = t
        while v != s:
            a = parent_arc[v]
            bottleneck = cap[a] if bottleneck is None else min(bottleneck, cap[a])
            v = to[a ^ 1]
        v = t
        while v != s:
            a = parent_arc[v]
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
            v = to[a ^ 1]
        value += bottleneck
    reachable = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for a in head[u]:
            v = to[a]
            if cap[a] > 0 and v not in reachable:
                reachable.add(v)
                stack.append(v)
    flows = [arcs[k][2] - cap[2 * k] for k in range(len(arcs))]
    return value, flows, reachable


def max_flow_min_cut(net: FlowNetwork):
    """An integral maximum flow, a minimum cut, and the per-arc assignment.

    Returns (value, cut arcs, flow dict); the cut is the set of arcs leaving
    the source side of the residual reachability split, and its capacity
    equals the flow value.
    """
    index = net._index
    arcs = [(index[u], index[v], c) for u, v, c in net.arcs]
    value, flows, reachable = _edmonds_karp(
        len(net.nodes), arcs, index[net.source], index[net.sink]
    )
    cut = tuple(
        (u, v)
        for (u, v, _), (iu, iv, _) in zip(net.arcs, arcs)
        if iu in reachable and iv not in reachable
    )
    assignment = {(u, v): f for (u, v, _), f in zip(net.arcs, flows)}
    return value, cut, assignment


def validate_flow(net: FlowNetwork, value, assignment) -> tuple[bool, str | None]:
    """Capacity, integrality, and conservation checks for a flow assignment."""
    excess = {x: 0 for x in net.nodes}
    for u, v, c in net.arcs:
        f = assignment.get((u, v), 0)
        if isinstance(f, bool) or not isinstance(f, int) or f < 0 or f > c:
            return False, f"flow on {u!r}->{v!r} violates its capacity"
        excess[u] -= f
        excess[v] += f
    for x in net.nodes:
        if x in (net.source, net.sink):
            continue
        if excess[x] != 0:
            return False, f"conservation fails at {x!r}"
    if excess[net.sink] != value:
        return False, "stated value differs from the net inflow at the sink"
    return True, None


# ---------------------------------------------------------------------------
# Menger path systems on undirected graphs.


def menger_paths(g: Graph, s, t, mode: str = "vertex"):
    """Disjoint s-t paths with a cut certificate of the same size.

    ``mode`` selects what must be disjoint: "edge" gives edge-disjoint paths
    and an edge cut, "vertex" gives internally vertex-disjoint paths and a
    vertex cut (s and t must then be non-adjacent for the cut to exist).
    Returns (paths, cut) with len(paths) == len(cut).
    """
    if s not in g._index or t not in g._index:
        raise ValidationError("endpoints must be vertices of the graph")
    if s == t:
        raise ValidationError("source and sink must differ")
    if mode not in ("edge", "vertex"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "edge":
        return _menger_edge(g, s, t)
    if g.adjacent(s, t):
        raise ValidationError("vertex mode needs non-adjacent endpoints")
    return _menger_vertex(g, s, t)


def _menger_edge(g, s, t):
    index = g._index
    arcs = []
    for u, v in g.edges:
        arcs.append((index[u], index[v], 1))
        arcs.append((index[v], index[u], 1))
    value, flows, reachable = _edmonds_karp(len(g.vertices), arcs, index[s], index[t])
    net_out = _net_flows(len(g.vertices), arcs, flows)
    paths = _decompose_paths(net_out, index[s], index[t], value, list(g.vertices))
    cut = tuple(
        (u, v)
        for u, v in g.edges
        if (index[u] in reachable) != (index[v] in reachable)
    )
    return paths, cut


def _menger_vertex(g, s, t):
    big = len(g.vertices) + 1
    names = []
    index = {}

    def node(key):
        if key not in index:
            index[key] = len(names)
            names.append(key)
        return index[key]

    arcs = []
    split_in = {}
    split_out = {}
    for x in g.vertices:
        if x in (s, t):
            split_in[x] = split_out[x] = node(("v", x))
        else:
            split_in[x] = node(("in", x))
            split_out[x] = node(("out", x))
            arcs.append((split_in[x], split_out[x], 1))
    n_split = len(arcs)
    for u, v in g.edges:
        arcs.append((split_out[u], split_in[v], big))
        arcs.append((split_out[v], split_in[u], big))
    value, flows, reachable = _edmonds_karp(len(names), arcs, index[("v", s)], index[("v", t)])
    net_out = _net_flows(len(names), arcs, flows)
    raw_paths = _decompose_paths(net_out, index[("v", s)], index[("v", t)], value, names)
    paths = []
    for raw in raw_paths:
        collapsed = []
        for key in raw:
            label = key[1]
            if not collapsed or collapsed[-1] != label:
                collapsed.append(label)
        paths.append(tuple(collapsed))
    cut = tuple(
        names[u][1]
        for (u, v, _) in arcs[:n_split]
        if u in reachable and v not in reachable
    )
    return tuple(paths), cut


def _net_flows(n_nodes, arcs, flows):
    """Cancel opposite flows and return per-node maps of remaining units."""
    net = {}
    for (u, v, _), f in zip(arcs, flows):
        if f > 0:
            net[(u, v)] = net.get((u, v), 0) + f
    for (u, v) in list(net):
        if net.get((u, v), 0) > 0 and net.get((v, u), 0) > 0:
            cancel = min(net[(u, v)], net[(v, u)])
            net[(u, v)] -= cancel
            net[(v, u)] -= cancel
    out = [{} for _ in range(n_nodes)]
    for (u, v), f in net.items():
        if f > 0:
            out[u][v] = f
    return out


def _decompose_paths(net_out, s, t, value, names):
    """Peel `value` unit paths off a net flow, erasing any loops on the way."""
    paths = []
    for _ in range(value):
        walk = [s]
        pos = {s: 0}
        while walk[-1] != t:
            u = walk[-1]
            v = min(net_out[u])
            net_out[u][v] -= 1
            if net_out[u][v] == 0:
                del net_out[u][v]
            if v in pos:
                for w in walk[pos[v] + 1 :]:
                    del pos[w]
                del walk[pos[v] + 1 :]
            else:
                walk.append(v)
                pos[v] = len(walk) - 1
        paths.append(tuple(names[x] for x in walk))
    return tuple(paths)


def hall_via_menger(family: core.SetFamily):
    """Hall check through the two-extra-vertices flow reduction.

    A new source is joined to every set index and every ground element to a
    new sink, all capacities one; a full flow yields an SDR and a short one
    yields the usual alternating-reachability violator.  Exists as a
    cross-check path for core.hall_check.
    """
    n = family.n
    n_ground = len(family.ground)
    s = 0
    t = 1
    arcs = [(s, 2 + i, 1) for i in range(n)]
    sdr_arcs = []
    for i in range(n):
        for p in _bitmatch.bits_of(family._masks[i]):
            sdr_arcs.append((i, p))
            arcs.append((2 + i, 2 + n + p, 1))
    for p in range(n_ground):
        arcs.append((2 + n + p, t, 1))
    value, flows, _ = _edmonds_karp(2 + n + n_ground, arcs, s, t)
    match_row = [_bitmatch.UNMATCHED] * n
    match_col = [_bitmatch.UNMATCHED] * n_ground
    for (i, p), f in zip(sdr_arcs, flows[n : n + len(sdr_arcs)]):
        if f:
            match_row[i] = p
            match_col[p] = i
    if value == n:
        return core.Sdr(tuple(family.ground[c] for c in match_row))
    start = next(i for i, c in enumerate(match_row) if c == _bitmatch.UNMATCHED)
    rows, _ = _bitmatch.alternating_reachable(family._masks, match_row, match_col, [start])
    indices = tuple(sorted(rows))
    return core.HallViolator(indices=indices, union=family.union_of(indices))
