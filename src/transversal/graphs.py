"""Bipartite matching duality, disjoint path systems, and integer flows."""

from __future__ import annotations

from . import _bitmatch, birkhoff, core
from .errors import ValidationError


class BipartiteGraph:
    """A graph on two ordered vertex parts, every edge joining them.

    The parts are independent namespaces: an edge is an (a, b) pair whose
    first entry names a part-A vertex and the second a part-B vertex, so a
    label may legitimately appear on both sides (set indices and ground
    elements often do).

    Each part-A vertex's part-B positions are stored as an ascending list,
    the rows the matching engine walks for every graph; no bitmask is made.
    The `edges` tuple is made on first read: the matching and cover solves
    never read it.
    """

    __slots__ = ("part_a", "part_b", "_pairs", "_edges", "_a_index", "_b_index", "_cols")

    def __init__(self, part_a, part_b, edges):
        a_index = core._index_labels(part_a, "partA")
        b_index = core._index_labels(part_b, "partB")
        self.part_a = tuple(a_index)
        self.part_b = tuple(b_index)
        self._a_index = a_index
        self._b_index = b_index
        edges = list(edges)  # kept for `edges`, so a later change to the caller's list is not seen
        cols = [[] for _ in a_index]
        try:
            if not core._all_lists(edges):
                raise TypeError
            for a, b in edges:
                cols[a_index[a]].append(b_index[b])
        except (KeyError, TypeError, ValueError):
            _refuse_pair(edges, a_index, b_index)
            raise
        for c in cols:
            c.sort()
        if sum(map(len, map(set, cols))) != len(edges):  # keep each edge's first occurrence
            edges, cols = list(dict.fromkeys(map(tuple, edges))), [sorted({*c}) for c in cols]
        self._pairs = edges
        self._edges = None
        self._cols = cols

    @property
    def edges(self):
        """The edges as (a, b) tuples in input order, each at its first
        occurrence only."""
        if self._edges is None:
            self._edges = tuple(map(tuple, self._pairs))
            self._pairs = None
        return self._edges

    def has_edge(self, a, b) -> bool:
        ia = self._a_index.get(a)
        return ia is not None and self._b_index.get(b) in self._cols[ia]

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
        return cls(core._label_list(obj, "partA"), core._label_list(obj, "partB"), obj["edges"])


def _refuse_pair(edges, a_index, b_index):
    """Raise the ``ValidationError`` that names the first of `edges` that a
    bipartite graph on the parts of `a_index` and `b_index` refuses."""
    for k, e in enumerate(edges):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ValidationError(f"edge {k} is not an (a, b) pair: {e!r}", field=f"edges[{k}]")
        a, b = e
        try:
            ia, ib = a_index.get(a), b_index.get(b)
        except TypeError as exc:
            raise ValidationError(f"bad edge {k}: {exc}", field=f"edges[{k}]") from exc
        if ia is None:
            raise ValidationError(f"edge endpoint {a!r} is not in partA", field=f"edges[{k}]")
        if ib is None:
            raise ValidationError(f"edge endpoint {b!r} is not in partB", field=f"edges[{k}]")


class Graph:
    """A simple undirected graph over a single vertex namespace."""

    __slots__ = ("vertices", "edges", "_index", "_adj")

    def __init__(self, vertices, edges):
        index = core._index_labels(vertices, "vertices")
        self.vertices = vertices = tuple(index)
        self._index = index
        self._adj = adj = [0] * len(vertices)
        edges = edges if isinstance(edges, list) else list(edges)
        try:
            if not core._all_lists(edges):
                raise TypeError
            ends = [(index[u], index[v]) for u, v in edges]
            if any(iu == iv for iu, iv in ends):
                raise ValueError
        except (KeyError, TypeError, ValueError):
            _refuse_edge(edges, index)
            raise
        ends = dict.fromkeys((iu, iv) if iu < iv else (iv, iu) for iu, iv in ends)
        for iu, iv in ends:  # each edge at its first occurrence
            adj[iu] |= 1 << iv
            adj[iv] |= 1 << iu
        self.edges = tuple((vertices[iu], vertices[iv]) for iu, iv in ends)

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
        if not isinstance(obj["edges"], list):
            raise ValidationError("'edges' must be a list of pairs", field="edges")
        return cls(core._label_list(obj, "vertices"), obj["edges"])


def _refuse_edge(edges, index):
    """Raise the ``ValidationError`` that names the first of `edges` that a
    graph on the vertices of `index` refuses."""
    for k, e in enumerate(edges):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ValidationError(f"edge {k} is not a (u, v) pair: {e!r}", field=f"edges[{k}]")
        u, v = e
        try:
            known = u in index and v in index
        except TypeError as exc:
            raise ValidationError(f"bad edge {k}: {exc}", field=f"edges[{k}]") from exc
        if not known:
            raise ValidationError(f"edge {e!r} mentions an unknown vertex", field="edges")
        if u == v:
            raise ValidationError(f"loop at {u!r} is not allowed", field="edges")


class FlowNetwork:
    """A directed network with nonnegative integer capacities."""

    __slots__ = ("nodes", "arcs", "source", "sink", "_index")

    def __init__(self, nodes, arcs, source, sink):
        index = core._index_labels(nodes, "nodes")
        nodes = tuple(index)
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
        arcs = obj["edges"]
        if not isinstance(arcs, list):
            raise ValidationError("'edges' must be a list", field="edges")
        for k, arc in enumerate(arcs):
            if not isinstance(arc, list) or len(arc) != 3:
                raise ValidationError(f"edge {k} is not [from, to, capacity]: {arc!r}",
                                      field=f"edges[{k}]")
        listed = core._index_labels(core._label_list(obj, "nodes"), "nodes")
        named = [*listed, *(x for arc in arcs for x in arc[:2]), obj["source"], obj["sink"]]
        try:
            nodes = list(dict.fromkeys(named))
        except TypeError as exc:
            raise ValidationError(f"node names must be hashable: {exc}", field="edges") from exc
        return cls(nodes, arcs, obj["source"], obj["sink"])


def _matched_edges(g: BipartiteGraph, match_row) -> list:
    """The [a, b] pairs of a matching, in part-A order."""
    return [[g.part_a[i], g.part_b[c]] for i, c in enumerate(match_row)
            if c != _bitmatch.UNMATCHED]


def max_matching(g: BipartiteGraph) -> tuple[str, dict, str]:
    """A maximum matching, deterministic for a fixed input order, as
    ("found", payload, diagnostics), the payload being what
    `verify_matching` reads: "edges", its [a, b] pairs in part-A order,
    and "size", their number."""
    match_row, _ = _bitmatch.max_matching(g._cols, len(g.part_b))
    edges = _matched_edges(g, match_row)
    return "found", {"edges": edges, "size": len(edges)}, f"matching of size {len(edges)}"


def konig_cover(g: BipartiteGraph) -> tuple[str, dict, str]:
    """A maximum matching and a vertex cover of the same size, as ("found",
    payload, diagnostics), the payload being what `verify_cover` reads:
    "matching", [a, b] pairs in part-A order; "cover", its vertices by
    part, {"partA": [...], "partB": [...]}; and "size", the common size.

    The cover is read off alternating reachability from the free part-A
    vertices; equality of the two sizes certifies that the matching is
    maximum and the cover minimum.
    """
    match_row, match_col = _bitmatch.max_matching(g._cols, len(g.part_b))
    reached, cols = _bitmatch.alternating_reachable(g._cols, match_row, match_col)
    in_a = [
        g.part_a[i]
        for i in range(len(g.part_a))
        if match_row[i] != _bitmatch.UNMATCHED and i not in reached
    ]
    in_b = [g.part_b[c] for c in sorted(cols)]
    edges = _matched_edges(g, match_row)
    payload = {"matching": edges, "cover": {"partA": in_a, "partB": in_b}, "size": len(edges)}
    return "found", payload, f"matching and cover of size {len(edges)}"


def _matching_field(cert: dict, key: str) -> dict:
    """The distinct (a, b) pairs listed under `key`, as a dict from each to its position."""
    return core._index_labels([*map(tuple, core._cert_rows(cert, key, width=2))], key)


def _validate_matching(g: BipartiteGraph, pairs) -> tuple[bool, str | None]:
    """Every one of `pairs` is an edge of `g`, and no two share a vertex."""
    seen_a = set()
    seen_b = set()
    for a, b in pairs:
        if not g.has_edge(a, b):
            return False, f"({a!r},{b!r}) is not an edge of the graph"
        if a in seen_a or b in seen_b:
            return False, f"edges sharing a vertex at ({a!r},{b!r})"
        seen_a.add(a)
        seen_b.add(b)
    return True, None


def verify_matching(g: BipartiteGraph, cert: dict) -> tuple[bool, str | None]:
    """Check a ``matching`` certificate object: "edges" is a matching of `g`
    of "size" edges."""
    pairs = _matching_field(cert, "edges")
    ok, reason = _validate_matching(g, pairs)
    if ok and core._cert_field(cert, "size", int) != len(pairs):
        ok, reason = False, "size differs from the number of edges"
    return ok, reason


def verify_cover(g: BipartiteGraph, cert: dict) -> tuple[bool, str | None]:
    """Check a ``cover`` certificate object: a "matching" and a vertex
    "cover" ({"partA": [...], "partB": [...]}) of the same "size"."""
    pairs = _matching_field(cert, "matching")
    cover = core._cert_field(cert, "cover", dict)
    in_a = core._index_labels(core._cert_field(cover, "partA"), "partA")
    in_b = core._index_labels(core._cert_field(cover, "partB"), "partB")
    ok, reason = _validate_matching(g, pairs)
    if not ok:
        return False, reason
    for a, b in g.edges:
        if a not in in_a and b not in in_b:
            return False, f"edge ({a!r},{b!r}) is uncovered"
    if len(pairs) != len(in_a) + len(in_b):
        return False, "matching and cover sizes differ"
    if core._cert_field(cert, "size", int) != len(pairs):
        return False, "size differs from the number of edges"
    return True, None


# ---------------------------------------------------------------------------
# Integer max-flow (Dinic phases) and its cut.


def _edmonds_karp(n_nodes, arcs, s, t):
    """Return (value, flow per arc, residual-reachable node set).

    ``arcs`` is a list of (u, v, capacity) triples over node indices.  The
    flow is found in Dinic phases, whatever the name says.  Each phase
    levels the nodes by a breadth-first search of the residual graph,
    scanning arcs in input order, and stops as soon as the sink has a
    level: every node one level short of it has its level by then.  A
    sweep back from the sink ranks the nodes that lie on a shortest path,
    and a depth-first search on an explicit stack saturates such paths.
    ``current[u]`` is the next arc node u has to try in the phase, so no
    arc is tried twice, and a node with none left loses its rank.  The flow
    is deterministic for a fixed input order.  The last search, which
    misses the sink, levels exactly the residual source side.  That side is
    the same for every maximum flow, so the cut read off it does not depend
    on the engine.
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
        level = [-1] * n_nodes
        level[s] = 0
        queue = [s]
        k = 0
        while k < len(queue) and level[t] < 0:
            u = queue[k]
            k += 1
            below = level[u] + 1
            for a in head[u]:
                v = to[a]
                if cap[a] and level[v] < 0:
                    level[v] = below
                    if v == t:
                        break
                    queue.append(v)
        if level[t] < 0:
            break
        # rank[u] is level[u] if a shortest path runs on from u to the sink,
        # else -1, so the depth-first search enters no dead end it can see.
        rank = [-1] * n_nodes
        rank[t] = level[t]
        stack = [t]
        while stack:
            v = stack.pop()
            above = rank[v] - 1
            for a in head[v]:
                u = to[a]
                if rank[u] < 0 and level[u] == above and cap[a ^ 1]:
                    rank[u] = above
                    stack.append(u)
        current = [0] * n_nodes
        path = []  # arcs from s to u, each one rank deeper
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= bottleneck
                    cap[a ^ 1] += bottleneck
                value += bottleneck
                # Resume from the tail of the first arc the path saturated.
                j = 0
                while cap[path[j]]:
                    j += 1
                u = to[path[j] ^ 1]
                del path[j:]
                continue
            out = head[u]
            i = current[u]
            below = rank[u] + 1
            while i < len(out) and not (cap[out[i]] and rank[to[out[i]]] == below):
                i += 1
            current[u] = i
            if i < len(out):
                path.append(out[i])
                u = to[out[i]]
            elif u == s:
                break
            else:
                rank[u] = -1
                u = to[path.pop() ^ 1]
    reachable = {u for u in range(n_nodes) if level[u] >= 0}
    flows = [arcs[k][2] - cap[2 * k] for k in range(len(arcs))]
    return value, flows, reachable


def max_flow_min_cut(net: FlowNetwork) -> tuple[str, dict, str]:
    """An integral maximum flow and a minimum cut, as ("found", payload,
    diagnostics), the payload being what `verify_maxflow` reads: "value";
    "cut", the [from, to] arcs leaving the source side of the residual
    reachability split, whose capacity equals the value; and "flow", the
    [from, to, units] of every arc.  A value too long to print is refused
    with ``ResourceLimitError``.
    """
    index = net._index
    arcs = [(index[u], index[v], c) for u, v, c in net.arcs]
    value, flows, reachable = _edmonds_karp(
        len(net.nodes), arcs, index[net.source], index[net.sink]
    )
    # Only the value can be too long to print: each arc's flow is within its parsed capacity.
    birkhoff._check_printable("the maximum flow", value)
    cut = [
        [u, v]
        for (u, v, _), (iu, iv, _) in zip(net.arcs, arcs)
        if iu in reachable and iv not in reachable
    ]
    flow = [[u, v, f] for (u, v, _), f in zip(net.arcs, flows)]
    return "found", {"value": value, "cut": cut, "flow": flow}, f"maximum flow {value}"


def verify_maxflow(net: FlowNetwork, cert: dict) -> tuple[bool, str | None]:
    """Check a ``maxflow`` certificate object: "flow" lists [from, to, units]
    of a feasible flow of "value", and "cut" lists [from, to] arcs of that
    capacity whose removal leaves the sink unreachable from the source."""
    value, flow = core._cert_field(cert, "value", int), core._cert_rows(cert, "flow", width=3)
    arcs = core._index_labels([tuple(row[:2]) for row in flow], "flow")
    cut = core._index_labels([*map(tuple, core._cert_rows(cert, "cut", width=2))], "cut")
    if not {(u, v) for u, v, _ in net.arcs}.issuperset([*arcs, *cut]):
        return False, "certificate names an arc that is not in the network"
    units = dict(zip(arcs, (row[2] for row in flow)))
    excess = dict.fromkeys(net.nodes, 0)
    for u, v, c in net.arcs:
        f = units.get((u, v), 0)
        if isinstance(f, bool) or not isinstance(f, int) or f < 0 or f > c:
            return False, f"flow on {u!r}->{v!r} violates its capacity"
        excess[u] -= f
        excess[v] += f
    for x in net.nodes:
        if x not in (net.source, net.sink) and excess[x] != 0:
            return False, f"conservation fails at {x!r}"
    if excess[net.sink] != value:
        return False, "stated value differs from the net inflow at the sink"
    if sum(c for u, v, c in net.arcs if (u, v) in cut) != value:
        return False, "cut capacity differs from the flow value"
    index = net._index
    out = [0] * len(net.nodes)
    for u, v, c in net.arcs:
        if c > 0 and (u, v) not in cut:
            out[index[u]] |= 1 << index[v]
    if (_bitmatch.reachable(out, index[net.source]) >> index[net.sink]) & 1:
        return False, "cut does not separate source from sink"
    return True, None


# ---------------------------------------------------------------------------
# Menger path systems on undirected graphs.


def menger_paths(g: Graph, s, t, mode: str = "vertex") -> tuple[str, dict, str]:
    """Disjoint s-t paths with a cut certificate of the same size, as
    ("found", payload, diagnostics), the payload being what
    `verify_menger` reads: "paths", each a vertex list from s to t;
    "cut", as many edges [u, v] or inner vertices; and "count", their
    number.

    ``mode`` selects what must be disjoint: "edge" gives edge-disjoint paths
    and an edge cut, "vertex" gives internally vertex-disjoint paths and a
    vertex cut (s and t must then be non-adjacent for the cut to exist).
    """
    check_endpoints(g, s, t)
    if mode not in ("edge", "vertex"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "vertex" and g.adjacent(s, t):
        raise ValidationError("vertex mode needs non-adjacent endpoints", field="mode")
    paths, cut = (_menger_edge if mode == "edge" else _menger_vertex)(g, s, t)
    payload = {"paths": paths, "cut": cut, "count": len(paths)}
    return "found", payload, f"{len(paths)} disjoint paths, cut of equal size"


def check_endpoints(g: Graph, s, t) -> None:
    """Raise ``ValidationError`` unless `s` and `t` are distinct vertices."""
    if s not in g._index or t not in g._index:
        field = "sink" if s in g._index else "source"
        raise ValidationError("endpoints must be vertices of the graph", field=field)
    if s == t:
        raise ValidationError("source and sink must differ", field="sink")


def verify_menger(g: Graph, s, t, mode: str, cert: dict) -> tuple[bool, str | None]:
    """Check a ``menger`` certificate object: "paths" are `mode`-disjoint
    s-t paths, "count" of them, and "cut" is as many edges ([u, v]) or inner
    vertices whose removal leaves `t` unreachable from `s`."""
    index, adj, edge_mode = g._index, g.adjacency_masks(), mode == "edge"
    paths = core._cert_rows(cert, "paths", index)
    if edge_mode:
        cut, blocked = core._cert_rows(cert, "cut", index, width=2), 0
    else:
        cut = core._cert_field(cert, "cut")
        blocked = core._mask_of(cut, index, "cut")
    if len(paths) != len(cut):
        return False, "path count differs from cut size"
    if core._cert_field(cert, "count", int) != len(paths):
        return False, "count differs from the number of paths"
    used = set()  # edges as position sets, or inner vertices, by mode
    for k, path in enumerate(paths):
        pos = [index[x] for x in path]
        if len(pos) < 2 or path[0] != s or path[-1] != t or len(set(pos)) != len(pos):
            return False, f"path {k} is not a simple path from source to sink"
        if not all((adj[u] >> v) & 1 for u, v in zip(pos, pos[1:])):
            return False, f"path {k} uses a non-edge"
        parts = [frozenset(e) for e in zip(pos, pos[1:])] if edge_mode else pos[1:-1]
        if not used.isdisjoint(parts):
            return False, f"paths share {'an edge' if edge_mode else 'a vertex'}"
        used.update(parts)
    for u, v in cut if edge_mode else ():
        adj[index[u]] &= ~(1 << index[v])
        adj[index[v]] &= ~(1 << index[u])
    if (blocked >> index[s]) & 1 or (blocked >> index[t]) & 1:
        return False, "cut may not contain an endpoint"
    if (_bitmatch.reachable(adj, index[s], blocked) >> index[t]) & 1:
        return False, "cut does not disconnect the endpoints"
    return True, None


def _menger_edge(g, s, t):
    index = g._index
    arcs = []
    for u, v in g.edges:
        arcs.append((index[u], index[v], 1))
        arcs.append((index[v], index[u], 1))
    value, flows, reachable = _edmonds_karp(len(g.vertices), arcs, index[s], index[t])
    net_out = _net_flows(len(g.vertices), arcs, flows)
    paths = _decompose_paths(net_out, index[s], index[t], value, list(g.vertices))
    cut = [[u, v] for u, v in g.edges if (index[u] in reachable) != (index[v] in reachable)]
    return paths, cut


def _menger_vertex(g, s, t):
    """Vertex i enters the split network at node i and leaves it at node
    n + i, through an arc of capacity 1; s and t are not split."""
    index, names = g._index, g.vertices
    n, si, ti = len(names), index[s], index[t]
    out = [i if i in (si, ti) else n + i for i in range(n)]
    arcs = [(i, n + i, 1) for i in range(n) if i not in (si, ti)]
    n_split = len(arcs)
    for u, v in g.edges:
        arcs.append((out[index[u]], index[v], n + 1))
        arcs.append((out[index[v]], index[u], n + 1))
    value, flows, reachable = _edmonds_karp(2 * n, arcs, si, ti)
    net_out = _net_flows(2 * n, arcs, flows)
    raw_paths = _decompose_paths(net_out, si, ti, value, names * 2)
    # A path enters and leaves each inner vertex, so each appears twice in a row.
    paths = [[s, *raw[1:-1:2], t] for raw in raw_paths]
    cut = [names[u] for u, v, _ in arcs[:n_split] if u in reachable and v not in reachable]
    return paths, cut


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
        paths.append([names[x] for x in walk])
    return paths
