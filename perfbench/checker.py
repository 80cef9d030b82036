"""Independent output checker.

Re-checks every envelope the program prints from the input files alone.  It
imports nothing from the ``transversal`` package: matchings, closures,
ranks, cosets and permanents are recomputed here with separate code.

``Checker.solve(op, envelope, code)`` and ``Checker.verify(op, envelope,
code)`` return None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import json
import os
from collections import deque
from fractions import Fraction
from itertools import permutations
from math import factorial

EXIT = {"found": 0, "not-found": 1, "invalid-input": 2, "resource-limit": 3}
LATIN_SQUARE_COUNTS = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}


class CheckFailed(Exception):
    pass


def require(ok, reason):
    if not ok:
        raise CheckFailed(reason)


class Checker:
    def __init__(self, workdir):
        self.workdir = workdir
        self.pair_values = {}

    def _load(self, name):
        with open(os.path.join(self.workdir, name), encoding="utf-8") as fh:
            return json.load(fh)

    def solve(self, op, envelope, code):
        try:
            self._status(op, envelope, code)
            handler = getattr(self, "_" + op["argv"][0].replace("-", "_"))
            handler(op, envelope["status"], envelope["payload"])
        except CheckFailed as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            return f"malformed payload: {type(exc).__name__}: {exc}"
        return None

    def verify(self, op, envelope, code):
        if code != 0 or envelope.get("status") != "found":
            return f"--verify refused the certificate: {envelope.get('diagnostics')}"
        if envelope.get("payload") != {"valid": True}:
            return "--verify did not report a valid certificate"
        return None

    def _status(self, op, envelope, code):
        status = envelope.get("status")
        require(status in EXIT, f"unknown status {status!r}")
        require(EXIT[status] == code, f"exit code {code} does not match status {status}")
        require(status in ("found", "not-found"),
                f"{status}: {envelope.get('diagnostics')}")
        expect = op["expect"]
        require(expect == "any" or status == expect, f"status {status}, expected {expect}")

    # -- families ----------------------------------------------------------

    def _sdr(self, op, status, payload):
        fam = self._load(op["argv"][1])
        if status == "found":
            check_sdr(fam["sets"], payload["reps"])
        else:
            check_hall_violator(fam["sets"], payload["indices"], payload["union"])

    def _defect(self, op, status, payload):
        fam = self._load(op["argv"][1])
        sets = fam["sets"]
        partial = {int(k): v for k, v in payload["partial"].items()}
        seen = set()
        for i, x in partial.items():
            require(0 <= i < len(sets) and x in sets[i], f"set {i} does not hold {x!r}")
            require(x not in seen, f"{x!r} assigned twice")
            seen.add(x)
        best = matching_size(label_masks(sets, fam["ground"]))
        require(payload["defect"] == len(sets) - best,
                f"defect {payload['defect']}, recomputed {len(sets) - best}")
        require(len(partial) == best, "partial assignment is not maximum")

    def _count_sdr(self, op, status, payload):
        self._counted(op, payload["count"])

    def _array_sdr(self, op, status, payload):
        arr = self._load(op["argv"][1])
        grid = arr["grid"]
        if status == "not-found":
            require(payload is None, "not-found with a payload")
            require(brute_array_sdr(grid) is None, "an array system exists")
            return
        out = payload["grid"]
        require(len(out) == len(grid) and all(len(r) == len(grid[0]) for r in out),
                "grid shape differs")
        for r, row in enumerate(out):
            for c, x in enumerate(row):
                require(x in grid[r][c], f"cell ({r},{c}) does not hold {x!r}")
            require(len(set(row)) == len(row), f"row {r} repeats")
        for c in range(len(grid[0])):
            col = [row[c] for row in out]
            require(len(set(col)) == len(col), f"column {c} repeats")

    # -- graphs ------------------------------------------------------------

    def _matching(self, op, status, payload):
        g = self._load(op["argv"][1])
        edges = check_bipartite_matching(g, payload["edges"])
        require(payload["size"] == len(edges), "size field differs")
        best = matching_size(bipartite_masks(g))
        require(len(edges) == best, f"matching size {len(edges)}, maximum is {best}")

    def _cover(self, op, status, payload):
        g = self._load(op["argv"][1])
        edges = check_bipartite_matching(g, payload["matching"])
        in_a = set(payload["cover"]["partA"])
        in_b = set(payload["cover"]["partB"])
        for a, b in g["edges"]:
            require(a in in_a or b in in_b, f"edge ({a!r},{b!r}) is uncovered")
        require(len(edges) == len(in_a) + len(in_b) == payload["size"],
                "matching and cover sizes differ")

    def _menger(self, op, status, payload):
        argv = op["argv"]
        g = self._load(argv[1])
        s, t, mode = argv[argv.index("--source") + 1], argv[argv.index("--sink") + 1], \
            argv[argv.index("--mode") + 1]
        adj = adjacency(g["vertices"], g["edges"])
        paths = payload["paths"]
        cut = payload["cut"]
        require(len(paths) == len(cut) == payload["count"], "path count differs from cut size")
        used_inner, used_edges = set(), set()
        for k, path in enumerate(paths):
            require(len(path) >= 2 and path[0] == s and path[-1] == t,
                    f"path {k} does not join the endpoints")
            require(len(set(path)) == len(path), f"path {k} repeats a vertex")
            for u, v in zip(path, path[1:]):
                require(v in adj[u], f"path {k} uses a non-edge")
                key = frozenset((u, v))
                require(mode != "edge" or key not in used_edges, "paths share an edge")
                used_edges.add(key)
            for v in path[1:-1]:
                require(mode != "vertex" or v not in used_inner, "paths share a vertex")
                used_inner.add(v)
        if mode == "edge":
            removed = {frozenset(e) for e in cut}
            require(len(removed) == len(cut), "cut repeats an edge")
            reach = reachable(s, lambda u: (v for v in adj[u] if frozenset((u, v)) not in removed))
        else:
            blocked = set(cut)
            require(len(blocked) == len(cut) and s not in blocked and t not in blocked,
                    "vertex cut repeats a vertex or holds an endpoint")
            reach = reachable(s, lambda u: (v for v in adj[u] if v not in blocked))
        require(t not in reach, "cut does not separate the endpoints")

    def _maxflow(self, op, status, payload):
        net = self._load(op["argv"][1])
        cap = {(u, v): c for u, v, c in net["edges"]}
        excess = {}
        for u, v, f in payload["flow"]:
            require((u, v) in cap, f"flow on a non-arc {u!r}->{v!r}")
            require(isinstance(f, int) and 0 <= f <= cap[(u, v)], f"flow on {u!r}->{v!r}")
            excess[u] = excess.get(u, 0) - f
            excess[v] = excess.get(v, 0) + f
        require(len(payload["flow"]) == len(cap), "flow does not list every arc")
        s, t = net["source"], net["sink"]
        for x, e in excess.items():
            require(x in (s, t) or e == 0, f"conservation fails at {x!r}")
        value = payload["value"]
        require(excess.get(t, 0) == value, "value differs from the inflow at the sink")
        cut = {tuple(e) for e in payload["cut"]}
        require(all(e in cap for e in cut), "cut holds a non-arc")
        require(sum(cap[e] for e in cut) == value, "cut capacity differs from the flow value")
        out = {}
        for (u, v), c in cap.items():
            if c > 0 and (u, v) not in cut:
                out.setdefault(u, []).append(v)
        require(t not in reachable(s, lambda u: out.get(u, ())), "cut does not separate")

    def _perfect(self, op, status, payload):
        g = self._load(op["argv"][1])
        if status == "found":
            require(payload["perfect"] is True and payload["berge"] is True
                    and payload["witness"] is None, "perfect graph reported inconsistently")
            return
        witness = payload["witness"]
        require(payload["perfect"] is False and payload["berge"] is False,
                "imperfect graph reported inconsistently")
        require(witness and set(witness) <= set(g["vertices"]), "witness is not a vertex set")
        adj = adjacency(witness, [e for e in g["edges"] if e[0] in witness and e[1] in witness])
        require(clique_number(adj) != chromatic_number(adj),
                "witness has equal clique and chromatic numbers")

    # -- posets ------------------------------------------------------------

    def _dilworth(self, op, status, payload):
        po = self._load(op["argv"][1])
        below = strict_order(po)
        chains = payload["chains"]
        check_partition(po["elements"], chains)
        for chain in chains:
            for a, b in zip(chain, chain[1:]):
                require(below(a, b), f"chain entries {a!r},{b!r} out of order")
        antichain = payload["antichain"]
        check_antichain(below, antichain)
        require(len(chains) == len(antichain), "chain count differs from antichain size")

    def _mirsky(self, op, status, payload):
        po = self._load(op["argv"][1])
        below = strict_order(po)
        levels = payload["antichains"]
        check_partition(po["elements"], levels)
        for level in levels:
            check_antichain(below, level)
        chain = payload["chain"]
        for a, b in zip(chain, chain[1:]):
            require(below(a, b), "chain out of order")
        require(len(levels) == len(chain), "level count differs from chain length")

    # -- matrices ----------------------------------------------------------

    def _birkhoff(self, op, status, payload):
        m = self._load(op["argv"][1])
        target = [[Fraction(x) for x in row] for row in m["entries"]]
        n = len(target)
        acc = [[Fraction(0)] * n for _ in range(n)]
        total = Fraction(0)
        for term in payload["terms"]:
            c = Fraction(term["coefficient"])
            perm = term["permutation"]
            require(c > 0, "coefficient is not positive")
            require(sorted(perm) == list(range(n)), "term is not a permutation")
            total += c
            for i in range(n):
                acc[i][perm[i]] += c
        require(total == 1, "coefficients do not sum to 1")
        require(acc == target, "terms do not reconstruct the matrix")
        nnz = sum(1 for row in target for x in row if x)
        require(len(payload["terms"]) <= nnz - n + 1, "more terms than the support allows")

    def _permanent(self, op, status, payload):
        self._counted(op, Fraction(payload["permanent"]))

    def _bounds(self, op, status, payload):
        argv = op["argv"]
        n = int(argv[1])
        r = int(argv[argv.index("--regular") + 1])
        require(Fraction(payload["vdw"]) == Fraction(factorial(n), n ** n), "vdw bound")
        require(Fraction(payload["latin"]) == Fraction(factorial(n) ** (2 * n), n ** (n * n)),
                "latin bound")
        require(Fraction(payload["regular"]) == Fraction(r, n) ** n * factorial(n),
                "regular bound")

    def _counted(self, op, value):
        known = op["known"]
        expected = known_count(known, self._load(op["argv"][1]))
        require(value == expected, f"value {value}, expected {expected}")
        pair = known.get("pair")
        if pair is not None:
            other = self.pair_values.setdefault(pair, value)
            require(other == value, "permanent and count-sdr disagree on one matrix")

    # -- Latin -------------------------------------------------------------

    def _latin_extend(self, op, status, payload):
        rect = self._load(op["argv"][1])
        check_latin(rect, payload, len(rect["rows"]) + 1)

    def _latin_complete(self, op, status, payload):
        rect = self._load(op["argv"][1])
        check_latin(rect, payload, rect["n"])

    def _latin_count(self, op, status, payload):
        n = int(op["argv"][1])
        require(payload["count"] == LATIN_SQUARE_COUNTS[n], "wrong Latin square count")

    def _youden(self, op, status, payload):
        d = self._load(op["argv"][1])
        array = payload["array"]
        blocks = d["blocks"]
        k = len(blocks[0])
        require(len(array) == k, "array height differs from the block size")
        for r, row in enumerate(array):
            require(len(row) == len(blocks), f"row {r} has the wrong length")
            require(len(set(row)) == len(row), f"row {r} repeats a letter")
        for j, block in enumerate(blocks):
            require({row[j] for row in array} == set(block), f"column {j} is not its block")

    # -- matroids, groups, hypergraphs -------------------------------------

    def _rado(self, op, status, payload):
        fam = self._load(op["argv"][1])
        matroid = self._load(op["argv"][2])
        rank = matroid_rank(matroid)
        sets = fam["sets"]
        if status == "found":
            reps = payload["reps"]
            check_sdr(sets, reps)
            require(rank(reps) == len(reps), "representatives are not independent")
            return
        indices = payload["indices"]
        union = check_index_group(sets, indices, payload["union"])
        r = rank(union)
        require(payload["rank"] == r, f"stated rank {payload['rank']}, recomputed {r}")
        require(r < len(indices), "union rank is not below the number of sets")

    def _cosets(self, op, status, payload):
        argv = op["argv"]
        group = self._load(argv[1])
        gens = [as_element(x) for x in json.loads(argv[argv.index("--generators") + 1])]
        elements, mul = group_structure(group)
        sub = closure(gens, mul, identity_of(elements, mul))
        require({as_element(x) for x in payload["subgroup"]} == sub,
                "subgroup differs from the generated closure")
        lefts = {frozenset(mul(x, h) for h in sub) for x in elements}
        rights = {frozenset(mul(h, x) for h in sub) for x in elements}
        stated = ({frozenset(map(as_element, c)) for c in payload["left"]},
                  {frozenset(map(as_element, c)) for c in payload["right"]})
        require(stated in ((lefts, rights), (rights, lefts)), "coset partitions differ")
        reps = [as_element(x) for x in payload["reps"]]
        require(len(reps) == len(lefts), "one representative per coset needed")
        for coset in lefts | rights:
            require(sum(1 for x in reps if x in coset) == 1,
                    "a coset holds other than one representative")

    def _hyper_sdr(self, op, status, payload):
        fam = self._load(op["argv"][1])
        members = [{frozenset(e) for e in edges} for edges in fam["hypergraphs"]]
        if status == "not-found":
            require(brute_hyper_sdr(members) is None, "a hypergraph SDR exists")
            return
        selection = [frozenset(e) for e in payload["selection"]]
        require(len(selection) == len(members), "selection length differs")
        used = set()
        for i, edge in enumerate(selection):
            require(edge in members[i], f"entry {i} is not an edge of its hypergraph")
            require(not (edge & used), "entries share a vertex")
            used |= edge


# ---------------------------------------------------------------------------
# Independent algorithms.


def check_sdr(sets, reps):
    require(len(reps) == len(sets), "one representative per set needed")
    for i, x in enumerate(reps):
        require(x in sets[i], f"membership fails at set {i}")
    require(len(set(reps)) == len(reps), "representatives repeat")


def check_index_group(sets, indices, union):
    require(indices and len(set(indices)) == len(indices), "indices repeat or are empty")
    require(all(isinstance(i, int) and 0 <= i < len(sets) for i in indices),
            "index out of range")
    actual = set()
    for i in indices:
        actual.update(sets[i])
    require(actual == set(union) and len(union) == len(actual),
            "stated union differs from the recomputed union")
    return union


def check_hall_violator(sets, indices, union):
    check_index_group(sets, indices, union)
    require(len(union) < len(indices), "union is not smaller than the index set")


def label_masks(sets, ground):
    pos = {x: k for k, x in enumerate(ground)}
    return [[pos[x] for x in s] for s in sets]


def bipartite_masks(g):
    pos_b = {x: k for k, x in enumerate(g["partB"])}
    pos_a = {x: k for k, x in enumerate(g["partA"])}
    adj = [[] for _ in g["partA"]]
    for a, b in g["edges"]:
        adj[pos_a[a]].append(pos_b[b])
    return adj


def matching_size(adj):
    """Maximum bipartite matching size by Hopcroft-Karp with explicit stacks."""
    n_left = len(adj)
    match_l = [-1] * n_left
    match_r = {}
    size = 0
    while True:
        dist = [-1] * n_left
        queue = deque(i for i in range(n_left) if match_l[i] == -1)
        for i in queue:
            dist[i] = 0
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r.get(v, -1)
                if w == -1:
                    found = True
                elif dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return size
        cursor = [0] * n_left
        for root in range(n_left):
            if match_l[root] != -1:
                continue
            stack = [root]
            while stack:
                u = stack[-1]
                if cursor[u] == len(adj[u]):
                    dist[u] = -2  # dead end for this phase
                    stack.pop()
                    continue
                v = adj[u][cursor[u]]
                cursor[u] += 1
                w = match_r.get(v, -1)
                if w == -1:
                    # Augment along the stack: stack[k] takes the column it
                    # last advanced over.
                    for k in range(len(stack) - 1, -1, -1):
                        x = stack[k]
                        col = adj[x][cursor[x] - 1]
                        match_l[x] = col
                        match_r[col] = x
                    size += 1
                    break
                if dist[w] == dist[u] + 1:
                    stack.append(w)


def check_bipartite_matching(g, edges):
    present = {tuple(e) for e in g["edges"]}
    seen_a, seen_b = set(), set()
    for a, b in edges:
        require((a, b) in present, f"({a!r},{b!r}) is not an edge")
        require(a not in seen_a and b not in seen_b, "matching edges share a vertex")
        seen_a.add(a)
        seen_b.add(b)
    return edges


def adjacency(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def reachable(start, neighbours):
    seen = {start}
    stack = [start]
    while stack:
        for v in neighbours(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def strict_order(po):
    """Return below(a, b): a < b in the transitive closure of the pairs,
    from descendant bitmasks accumulated in reverse topological order."""
    elements = po["elements"]
    pos = {x: k for k, x in enumerate(elements)}
    succ = [[] for _ in elements]
    indeg = [0] * len(elements)
    for a, b in po["less_than"]:
        succ[pos[a]].append(pos[b])
        indeg[pos[b]] += 1
    order = [i for i in range(len(elements)) if indeg[i] == 0]
    for i in order:  # Kahn's algorithm; `order` grows while iterated
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    require(len(order) == len(elements), "input order has a cycle")
    desc = [0] * len(elements)
    for i in reversed(order):
        mask = 0
        for j in succ[i]:
            mask |= desc[j] | (1 << j)
        desc[i] = mask
    return lambda a, b: (desc[pos[a]] >> pos[b]) & 1 == 1


def check_partition(elements, parts):
    flat = [x for part in parts for x in part]
    require(len(flat) == len(set(flat)) and set(flat) == set(elements),
            "parts do not partition the elements")


def check_antichain(below, antichain):
    require(len(set(antichain)) == len(antichain), "antichain repeats")
    for k, a in enumerate(antichain):
        for b in antichain[k + 1:]:
            require(not below(a, b) and not below(b, a), f"{a!r},{b!r} are comparable")


def clique_number(adj):
    best = 0
    vertices = list(adj)

    def grow(chosen, candidates):
        nonlocal best
        best = max(best, len(chosen))
        for k, v in enumerate(candidates):
            grow(chosen + [v], [u for u in candidates[k + 1:] if u in adj[v]])

    grow([], vertices)
    return best


def chromatic_number(adj):
    vertices = sorted(adj, key=lambda v: -len(adj[v]))
    for colours in range(1, len(vertices) + 1):
        colour = {}

        def place(k):
            if k == len(vertices):
                return True
            v = vertices[k]
            for c in range(colours):
                if all(colour.get(u) != c for u in adj[v]):
                    colour[v] = c
                    if place(k + 1):
                        return True
                    del colour[v]
            return False

        if place(0):
            return colours
    return 0


def brute_permanent(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        prod = Fraction(1)
        for i in range(n):
            x = rows[i][perm[i]]
            if not x:
                prod = 0
                break
            prod *= x
        total += prod
    return total


def brute_sdr_count(sets):
    def count(i, used):
        if i == len(sets):
            return 1
        return sum(count(i + 1, used | {x}) for x in sets[i] if x not in used)

    return count(0, frozenset())


def derangements(n):
    d = [1, 0]
    for k in range(2, n + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    return d[n]


def known_count(known, data):
    shape = known["shape"]
    if shape == "ones":
        return factorial(known["n"])
    if shape == "derangement":
        return derangements(known["n"])
    if shape == "blocks":
        value = Fraction(1)
        for block in known["blocks"]:
            value *= brute_permanent([[Fraction(x) for x in row] for row in block])
        for s in known["scales"]:
            value *= Fraction(s)
        return value
    if shape == "family-blocks":
        value = 1
        for block in known["blocks"]:
            value *= brute_sdr_count(block)
        return value
    if shape == "brute":
        return brute_sdr_count(data["sets"])
    raise ValueError(f"unknown construction {shape!r}")


def check_latin(rect, payload, rows_expected):
    n = rect["n"]
    rows = payload["rows"]
    require(payload["n"] == n and len(rows) == rows_expected, "wrong number of rows")
    require(rows[:len(rect["rows"])] == rect["rows"], "input rows changed")
    symbols = list(range(1, n + 1))
    for r in rows:
        require(sorted(r) == symbols, "a row is not a permutation of the symbols")
    for c in range(n):
        col = [r[c] for r in rows]
        require(len(set(col)) == len(col), f"column {c} repeats a symbol")


def matroid_rank(matroid):
    """Rank function built from the matroid description, with union-find
    for graphic and Gaussian elimination for linear matroids."""
    kind = matroid["kind"]
    if kind == "graphic":
        ends = matroid["graph"]

        def rank(subset):
            parent = {}

            def find(a):
                root = a
                while parent.get(root, root) != root:
                    root = parent[root]
                while parent.get(a, a) != root:
                    parent[a], a = root, parent[a]
                return root

            r = 0
            for e in subset:
                u, v = (find(x) for x in ends[e])
                if u != v:
                    parent[u] = v
                    r += 1
            return r

        return rank
    if kind == "linear":
        p = matroid["modulus"]
        cols = matroid["columns"]
        return lambda subset: gf_rank([cols[e] for e in subset], p)
    if kind == "partition":
        owner = {x: b for b, block in enumerate(matroid["blocks"]) for x in block}
        caps = matroid["caps"]

        def rank(subset):
            counts = {}
            for x in set(subset):
                counts[owner[x]] = counts.get(owner[x], 0) + 1
            return sum(min(c, caps[b]) for b, c in counts.items())

        return rank
    raise ValueError(f"unknown matroid kind {kind!r}")


def gf_rank(vectors, p):
    rows = [[x % p for x in v] for v in vectors]
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        for k in range(r + 1, len(rows)):
            f = rows[k][c] * inv % p
            if f:
                rows[k] = [(x - f * y) % p for x, y in zip(rows[k], rows[r])]
        r += 1
    return r


def as_element(x):
    return tuple(x) if isinstance(x, list) else x


def group_structure(group):
    if "table" in group:
        elements = group["elements"]
        pos = {x: k for k, x in enumerate(elements)}
        table = group["table"]
        return list(elements), lambda a, b: elements[table[pos[a]][pos[b]]]
    degree = group["degree"]
    gens = [tuple(g) for g in group["permutations"]]

    def mul(p, q):  # q first, then p
        return tuple(p[q[i] - 1] for i in range(degree))

    identity = tuple(range(1, degree + 1))
    return sorted(closure(gens, mul, identity)), mul


def identity_of(elements, mul):
    return next(e for e in elements if all(mul(e, x) == x for x in elements))


def closure(gens, mul, identity):
    members = {identity, *gens}
    frontier = list(members)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                for x in (mul(a, g), mul(g, a)):
                    if x not in members:
                        members.add(x)
                        fresh.append(x)
        frontier = fresh
    return members


def brute_array_sdr(grid):
    rows, cols = len(grid), len(grid[0])
    chosen = {}

    def place(k):
        if k == rows * cols:
            return True
        r, c = divmod(k, cols)
        for x in grid[r][c]:
            if any(chosen.get((r, j)) == x for j in range(c)):
                continue
            if any(chosen.get((i, c)) == x for i in range(r)):
                continue
            chosen[(r, c)] = x
            if place(k + 1):
                return True
            del chosen[(r, c)]
        return False

    return dict(chosen) if place(0) else None


def brute_hyper_sdr(members):
    def pick(i, used):
        if i == len(members):
            return []
        for edge in members[i]:
            if not (edge & used):
                rest = pick(i + 1, used | edge)
                if rest is not None:
                    return [edge] + rest
        return None

    return pick(0, frozenset())
