"""Seeded input generators, one per workload.

``build(name, seed, workdir)`` writes the input files of one pass into
``workdir`` and returns the pass as a list of operations.  An operation is a
plain dict:

    id       unique name inside the pass
    argv     arguments for ``transversal.cli.main`` (paths relative to workdir)
    expect   status the solve must report: "found", "not-found", or "any"
             where the certificate alone decides
    verify   how many times the emitted certificate is re-checked with
             --verify (0: never)
    known    construction facts the checker needs (optional)

The same seed always gives the same files and the same operations.  Sizes
are fixed per workload and the seed changes contents, so run-to-run cost
stays comparable across seeds.  A few inputs are the same for every seed:
the 1500-step chain, the 30-set rado case, and the random 3-out graphs of
matching-large, whose matching cost varies too much between draws.  The
poset of matching-large is fixed too, up to names and order, which the seed
draws.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import combinations

WORKLOADS = ("matching-large", "assign-many", "count-exp", "desk-mix")

# --verify takes a few milliseconds against solves of a tenth of a second or
# more on these workloads, so a pass gives few verify samples; repeating it
# gives verify_p50_s enough of them at little cost.
VERIFY_REPEAT = {"assign-many": 5, "count-exp": 5}

# Percentile reported as latency_tail_s, fixed per workload so that it keeps
# its meaning when the program gets faster: each is the highest percentile
# with at least ten solve samples beyond it in a run of four passes (desk-mix:
# of 500 samples).  A pass repeats k operations (k = 13, 9, 17, 39), so each
# falls inside the samples of one operation, or of a few of nearly equal
# cost, and none on the jump between two: sdr-3-out, matching and cover on
# matching-large (p81), latin-complete-45 on assign-many (p72),
# permanent-blocks-18 on count-exp (p85) and the slowest operation on
# desk-mix (p98).
TAIL_PERCENTILE = {
    "matching-large": 81,
    "assign-many": 72,
    "count-exp": 85,
    "desk-mix": 98,
}


class _Pass:
    def __init__(self, workdir, small, verify_repeat):
        self.workdir = workdir
        self.small = small
        self.verify_repeat = verify_repeat
        self.ops = []

    def size(self, full, small):
        """Full size for measuring; the small one for the smoke mode."""
        return small if self.small else full

    def write(self, name, obj):
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))
        return name

    def op(self, op_id, argv, expect="found", verify=True, known=None):
        self.ops.append({"id": op_id, "argv": argv, "expect": expect,
                         "verify": self.verify_repeat if verify else 0, "known": known})


def build(name, seed, workdir, small=False):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    os.makedirs(workdir, exist_ok=True)
    p = _Pass(workdir, small, VERIFY_REPEAT.get(name, 1))
    rng = random.Random(f"{name}/{seed}")
    _BUILDERS[name](p, rng)
    return p.ops


# ---------------------------------------------------------------------------
# Shared shapes.


def _labels(rng, prefix, n):
    """n distinct string labels whose spelling depends on the seed."""
    tag = rng.randrange(36**3)
    return [f"{prefix}{tag:x}_{i}" for i in range(n)]


def planted_family(rng, n, m, extra):
    """n sets over m elements; set i holds a planted representative plus
    `extra` random others, so an SDR exists."""
    ground = _labels(rng, "g", m)
    planted = rng.sample(range(m), n)
    sets = []
    for i in range(n):
        members = {planted[i]}
        while len(members) < extra + 1:
            members.add(rng.randrange(m))
        sets.append([ground[x] for x in sorted(members)])
    return {"ground": ground, "sets": sets}


def violating_family(rng, n, m, extra, k):
    """Like planted_family, but k sets draw only from a pool of k - 1
    elements, so no SDR exists."""
    fam = planted_family(rng, n, m, extra)
    ground = fam["ground"]
    pool = rng.sample(range(m), k - 1)
    for i in rng.sample(range(n), k):
        fam["sets"][i] = [ground[x] for x in sorted(rng.sample(pool, min(extra + 1, k - 1)))]
    return fam


def random_family(rng, n, m, k):
    """n sets of k random elements each; usually no SDR, since about
    m / e^k elements are left out of every set."""
    ground = _labels(rng, "f", m)
    return {"ground": ground, "sets": [sorted(rng.sample(ground, k)) for _ in range(n)]}


def chain_family(rng, length):
    """Set i holds elements i and i+1; a last set holds only element 0.

    The only SDR assigns i+1 to set i and 0 to the last set, and the scan
    order makes the final augmenting path run through the whole chain.
    """
    ground = _labels(rng, "c", length + 1)
    sets = [[ground[i], ground[i + 1]] for i in range(length)]
    sets.append([ground[0]])
    return {"ground": ground, "sets": sets}


def random_bipartite(rng, na, nb, degree):
    part_a = _labels(rng, "a", na)
    part_b = _labels(rng, "b", nb)
    edges = []
    for a in part_a:
        for b in rng.sample(part_b, degree):
            edges.append([a, b])
    return {"partA": part_a, "partB": part_b, "edges": edges}


def block_poset(rng, n, block, density):
    """Disjoint union of random posets of `block` elements each."""
    elements = _labels(rng, "p", n)
    order = list(range(n))
    rng.shuffle(order)
    pairs = []
    for start in range(0, n, block):
        members = order[start:start + block]
        for x, y in combinations(range(len(members)), 2):
            if rng.random() < density:
                pairs.append([elements[members[x]], elements[members[y]]])
    return {"elements": elements, "less_than": pairs}


def layered_network(rng, layers, width, fanout, max_cap):
    """Layered network whose middle layer has small capacities, so the
    minimum cut, and with it the source side, sits in the middle."""
    nodes = ["s", "t"] + [f"n{layer}_{i}" for layer in range(layers) for i in range(width)]
    edges = []
    for i in range(width):
        edges.append(["s", f"n0_{i}", rng.randint(2 * max_cap, 4 * max_cap)])
        edges.append([f"n{layers - 1}_{i}", "t", rng.randint(2 * max_cap, 4 * max_cap)])
    for layer in range(layers - 1):
        low, high = (1, 3) if layer == layers // 2 - 1 else (max_cap, 2 * max_cap)
        for i in range(width):
            for j in rng.sample(range(width), fanout):
                edges.append([f"n{layer}_{i}", f"n{layer + 1}_{j}", rng.randint(low, high)])
    return {"nodes": nodes, "source": "s", "sink": "t", "edges": edges}


def relabelled_poset(rng, poset):
    """`poset` with its elements renamed and listed, with its relations, in a
    random order."""
    fresh = _labels(rng, "p", len(poset["elements"]))
    rng.shuffle(fresh)
    name = dict(zip(poset["elements"], fresh))
    pairs = [[name[x], name[y]] for x, y in poset["less_than"]]
    rng.shuffle(pairs)
    rng.shuffle(fresh)
    return {"elements": fresh, "less_than": pairs}


def random_graph(rng, n, degree):
    """Ring plus random chords: connected, about n * degree / 2 edges."""
    vertices = _labels(rng, "v", n)
    edges = set()
    for i in range(n):
        edges.add((i, (i + 1) % n))
    while len(edges) < n * degree // 2:
        u, v = rng.sample(range(n), 2)
        if (v, u) not in edges:
            edges.add((u, v))
    return {"vertices": vertices, "edges": [[vertices[u], vertices[v]] for u, v in sorted(edges)]}


def menger_pair(graph):
    """Source of largest degree and a non-adjacent sink of smallest degree:
    the cut closest to the source is then the sink's neighbourhood, so the
    source side holds nearly every vertex for every seed."""
    vertices = graph["vertices"]
    adj = {v: set() for v in vertices}
    for u, v in graph["edges"]:
        adj[u].add(v)
        adj[v].add(u)
    t = min(vertices, key=lambda v: len(adj[v]))
    s = max((v for v in vertices if v != t and v not in adj[t]), key=lambda v: len(adj[v]))
    return s, t


def rational_rows(matrix):
    return [[str(x) for x in row] for row in matrix]


def doubly_stochastic(rng, n, terms):
    """Weighted sum of random permutation matrices, normalised."""
    acc = [[0] * n for _ in range(n)]
    total = 0
    for _ in range(terms):
        perm = list(range(n))
        rng.shuffle(perm)
        w = rng.randint(1, 30)
        total += w
        for i in range(n):
            acc[i][perm[i]] += w
    return {"n": n, "entries": [[str(Fraction(x, total)) for x in row] for row in acc]}


def latin_row(rng, n):
    row = list(range(1, n + 1))
    rng.shuffle(row)
    return {"n": n, "rows": [row]}


def latin_rows(rng, n, m):
    """First m rows of a cyclic square under random symbol and column
    relabelling."""
    symbols = list(range(1, n + 1))
    rng.shuffle(symbols)
    cols = list(range(n))
    rng.shuffle(cols)
    return {"n": n, "rows": [[symbols[(r + cols[c]) % n] for c in range(n)] for r in range(m)]}


# Cyclic difference sets: the design's blocks are the translates D + s mod v.
_DIFFERENCE_SETS = {
    7: (0, 1, 3),
    13: (0, 1, 3, 9),
    21: (3, 6, 7, 12, 14),
}


def difference_set(v):
    if v in _DIFFERENCE_SETS:
        return _DIFFERENCE_SETS[v]
    # Paley: quadratic residues modulo a prime v = 3 (mod 4).
    return tuple(sorted({(x * x) % v for x in range(1, v)}))


def cyclic_design(rng, v):
    base = difference_set(v)
    while True:  # a multiplier prime to v maps a difference set to another one
        t = rng.randrange(1, v)
        if _gcd(t, v) == 1:
            break
    base = sorted((t * d) % v for d in base)
    labels = _labels(rng, "q", v)
    shifts = list(range(v))
    rng.shuffle(shifts)
    blocks = [[labels[(d + s) % v] for d in base] for s in shifts]
    return {"points": labels, "blocks": blocks}


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def block_matrix(rng, sizes, *, rational=False, zero_one_density=0.7):
    """Block-diagonal matrix under random row and column permutations.

    Returns (entries, known) where ``known`` records the blocks and row
    scales, from which the checker derives the permanent on its own.
    """
    n = sum(sizes)
    blocks = []
    dense = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for size in sizes:
        block = [[1 if rng.random() < zero_one_density else 0 for _ in range(size)]
                 for _ in range(size)]
        for i in range(size):  # keep the block permanent nonzero
            block[i][i] = 1
        if rational:
            block = [[Fraction(rng.randint(1, 9), rng.randint(1, 6)) if x else Fraction(0)
                      for x in row] for row in block]
        blocks.append([[str(x) for x in row] for row in block])
        for i in range(size):
            for j in range(size):
                dense[offset + i][offset + j] = Fraction(block[i][j])
        offset += size
    row_perm = list(range(n))
    col_perm = list(range(n))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    entries = [[dense[row_perm[i]][col_perm[j]] for j in range(n)] for i in range(n)]
    scales = [1] * n
    if rational:
        scales = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(n)]
        entries = [[x * scales[i] for x in row] for i, row in enumerate(entries)]
    known = {"shape": "blocks", "blocks": blocks, "scales": [str(s) for s in scales]}
    return entries, known


def incidence_family(rng, entries):
    """Set i holds the columns where row i of a 0/1 matrix is nonzero."""
    n = len(entries[0])
    ground = _labels(rng, "k", n)
    sets = [[ground[j] for j in range(n) if entries[i][j]] for i in range(len(entries))]
    return {"ground": ground, "sets": sets}


def all_ones(n):
    return [[1] * n for _ in range(n)]


def derangement_matrix(n):
    return [[0 if i == j else 1 for j in range(n)] for i in range(n)]


def rectangular_blocks(rng, shapes):
    """A family made of disjoint blocks; block b has r sets over c elements.

    Returns (family, known) with the blocks spelled out so the checker can
    count each block by brute force and multiply.
    """
    m = sum(c for _, c in shapes)
    ground = _labels(rng, "r", m)
    order = list(range(m))
    rng.shuffle(order)
    sets = []
    blocks = []
    offset = 0
    for r, c in shapes:
        cols = order[offset:offset + c]
        block = []
        for i in range(r):
            members = {cols[i % c]}
            for x in cols:
                if rng.random() < 0.6:
                    members.add(x)
            block.append(sorted(members))
        blocks.append([[ground[x] for x in s] for s in block])
        sets.extend(block)
        offset += c
    rng.shuffle(sets)
    return (
        {"ground": ground, "sets": [[ground[x] for x in s] for s in sets]},
        {"shape": "family-blocks", "blocks": blocks},
    )


# ---------------------------------------------------------------------------
# Matroid inputs for rado.


def graphic_instance(rng, n_vertices, n_edges, n_sets, set_size):
    """A connected graph and a family of edge sets with a plain SDR.

    With n_sets >= n_vertices the union has rank at most n_vertices - 1,
    below the number of sets, so no independent system exists.
    """
    vertices = [f"u{i}" for i in range(n_vertices)]
    pairs = set()
    order = list(range(n_vertices))
    rng.shuffle(order)
    for k in range(1, n_vertices):  # random spanning tree first
        u, v = order[k], order[rng.randrange(k)]
        pairs.add((min(u, v), max(u, v)))
    while len(pairs) < n_edges:
        u, v = rng.sample(range(n_vertices), 2)
        pairs.add((min(u, v), max(u, v)))
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    edge_ids = [f"e{k}" for k in range(len(pairs))]
    graph = {eid: [vertices[u], vertices[v]] for eid, (u, v) in zip(edge_ids, pairs)}
    planted = rng.sample(edge_ids, n_sets)
    sets = []
    for i in range(n_sets):
        members = {planted[i]}
        while len(members) < set_size:
            members.add(rng.choice(edge_ids))
        sets.append(sorted(members))
    family = {"ground": edge_ids, "sets": sets}
    return family, {"kind": "graphic", "graph": graph}


def linear_instance(rng, dim, n_cols, n_sets, set_size, modulus):
    labels = [f"w{k}" for k in range(n_cols)]
    columns = {lab: [rng.randrange(modulus) for _ in range(dim)] for lab in labels}
    planted = rng.sample(labels, n_sets)
    sets = []
    for i in range(n_sets):
        members = {planted[i]}
        while len(members) < set_size:
            members.add(rng.choice(labels))
        sets.append(sorted(members))
    return {"ground": labels, "sets": sets}, {"kind": "linear", "columns": columns,
                                              "modulus": modulus}


def partition_instance(rng, n_blocks, block_size, n_sets, set_size):
    labels = [f"z{k}" for k in range(n_blocks * block_size)]
    blocks = [labels[b * block_size:(b + 1) * block_size] for b in range(n_blocks)]
    caps = [rng.randint(1, 2) for _ in range(n_blocks)]
    sets = []
    for _ in range(n_sets):
        sets.append(sorted(rng.sample(labels, set_size)))
    return {"ground": labels, "sets": sets}, {"kind": "partition", "blocks": blocks,
                                              "caps": caps}


# ---------------------------------------------------------------------------
# Groups for cosets.


def perm_group(gens, degree):
    return {"permutations": [list(g) for g in gens], "degree": degree}


# ---------------------------------------------------------------------------
# Workloads.


def _matching_large(p, rng):
    # The breadth-first matching engine's cost on a random 3-out graph with
    # n = 3000 changes by up to a third from one draw to the next, so these
    # three graphs come from a generator fixed for every seed.  The cost of
    # dilworth varies by a sixth between draws, so its poset is fixed too, and
    # the seed renames and reorders it.  The seed draws the other inputs.
    fixed = random.Random("matching-large")
    n = p.size(3000, 300)
    f1 = p.write("family-feasible.json", planted_family(rng, n, n, 2))
    p.op("sdr-feasible", ["sdr", f1])
    p.op("defect-feasible", ["defect", f1])
    f2 = p.write("family-violating.json", violating_family(fixed, n, n, 2, n // 8))
    p.op("sdr-violating", ["sdr", f2], expect="not-found")
    p.op("defect-violating", ["defect", f2])
    f4 = p.write("family-3-out.json", random_family(fixed, n, n, 3))
    p.op("sdr-3-out", ["sdr", f4], expect="any")
    # Kept at full length in every mode: a matching engine that recurses
    # once per path step fails here.
    f3 = p.write("family-chain.json", chain_family(rng, 1500))
    p.op("sdr-chain", ["sdr", f3])
    p.op("defect-chain", ["defect", f3])
    g = p.write("bipartite.json", random_bipartite(fixed, n, n, 3))
    p.op("cover", ["cover", g])
    p.op("matching", ["matching", g])
    poset = block_poset(fixed, p.size(2000, 200), 25, 0.15)
    po = p.write("poset.json", relabelled_poset(rng, poset))
    p.op("dilworth", ["dilworth", po])
    net = p.write("network.json", layered_network(rng, 8, p.size(100, 10), 4, 20))
    p.op("maxflow", ["maxflow", net])
    graph = random_graph(rng, p.size(400, 40), 6)
    s, t = menger_pair(graph)
    gr = p.write("graph.json", graph)
    p.op("menger-vertex", ["menger", gr, "--source", s, "--sink", t, "--mode", "vertex"])
    p.op("menger-edge", ["menger", gr, "--source", s, "--sink", t, "--mode", "edge"])


def _assign_many(p, rng):
    for n in p.size((30, 35, 40, 45), (8, 10)):
        f = p.write(f"row-{n}.json", latin_row(rng, n))
        p.op(f"latin-complete-{n}", ["latin-complete", f])
    for v in p.size((43, 71), (7, 11)):
        f = p.write(f"design-{v}.json", cyclic_design(rng, v))
        p.op(f"youden-{v}", ["youden", f])
    for n, terms in p.size(((16, 40), (20, 80), (24, 120)), ((5, 6), (6, 10))):
        f = p.write(f"ds-{n}.json", doubly_stochastic(rng, n, terms))
        p.op(f"birkhoff-{n}", ["birkhoff", f])


def _count_exp(p, rng):
    # permanent and count-sdr have no --verify; their answers are checked
    # against values the checker derives from the construction.
    n = p.size(16, 6)
    f = p.write("ones.json", {"n": n, "entries": rational_rows(all_ones(n))})
    p.op("permanent-ones", ["permanent", f], verify=False, known={"shape": "ones", "n": n})
    n = p.size(17, 7)
    f = p.write("derange.json", {"n": n, "entries": rational_rows(derangement_matrix(n))})
    p.op("permanent-derange", ["permanent", f], verify=False,
         known={"shape": "derangement", "n": n})
    for sizes in p.size(((5, 6, 5), (6, 6, 6)), ((2, 3, 2), (3, 3, 2))):
        n = sum(sizes)
        entries, known = block_matrix(rng, sizes)
        known["pair"] = f"blocks-{n}"
        f = p.write(f"blocks-{n}.json", {"n": n, "entries": rational_rows(entries)})
        p.op(f"permanent-blocks-{n}", ["permanent", f], verify=False, known=known)
        fam = p.write(f"blocks-{n}-family.json", incidence_family(rng, entries))
        p.op(f"count-sdr-blocks-{n}", ["count-sdr", fam], verify=False, known=known)
    for sizes in p.size(((6, 5, 6), (6, 7, 6)), ((3, 2, 3), (3, 3, 3))):
        n = sum(sizes)
        entries, known = block_matrix(rng, sizes, rational=True)
        f = p.write(f"rational-{n}.json", {"n": n, "entries": rational_rows(entries)})
        p.op(f"permanent-rational-{n}", ["permanent", f], verify=False, known=known)
    n = p.size(16, 6)
    fam = p.write("derange-family.json", incidence_family(rng, derangement_matrix(n)))
    p.op("count-sdr-derange", ["count-sdr", fam], verify=False,
         known={"shape": "derangement", "n": n})
    shapes = p.size(((6, 7), (5, 6), (6, 6)), ((2, 3), (3, 3)))
    fam, known = rectangular_blocks(rng, shapes)
    f = p.write("rect.json", fam)
    p.op("count-sdr-rect", ["count-sdr", f], verify=False, known=known)
    # Exponential kernels with a --verify and no matching work either, so
    # verify_p50_s exists on this workload too.
    for k, (n, hole) in enumerate(((10, 5), (10, 7), (9, 5), (9, 7))):
        f = p.write(f"imperfect-{k}.json", imperfect_graph(rng, n, hole))
        p.op(f"perfect-imperfect-{k}", ["perfect", f], expect="not-found")
    for k, (rows, cols) in enumerate(((4, 4), (3, 5), (2, 8))):
        f = p.write(f"array-{k}.json", array_family(rng, rows, cols, 8))
        p.op(f"array-sdr-{k}", ["array-sdr", f])


def imperfect_graph(rng, n, hole):
    """An odd hole on `hole` vertices plus extra vertices joined at random
    to the rest; the hole stays induced, so the graph is imperfect."""
    vertices = _labels(rng, "h", n)
    order = list(range(n))
    rng.shuffle(order)
    cycle = order[:hole]
    edges = {frozenset((cycle[i], cycle[(i + 1) % hole])) for i in range(hole)}
    for x in order[hole:]:
        for y in range(n):
            if y != x and (y in order[hole:] or rng.random() < 0.4) and rng.random() < 0.5:
                edges.add(frozenset((x, y)))
    return {"vertices": vertices, "edges": [[vertices[u], vertices[v]]
                                            for u, v in sorted(tuple(sorted(e)) for e in edges)]}


def bipartite_plain_graph(rng, n):
    """A bipartite graph (hence perfect) on n vertices."""
    vertices = _labels(rng, "b", n)
    left = set(rng.sample(range(n), n // 2))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if (u in left) != (v in left) and rng.random() < 0.5:
                edges.append([vertices[u], vertices[v]])
    return {"vertices": vertices, "edges": edges}


def array_family(rng, rows, cols, m):
    """A grid of sets that contains a planted array system."""
    ground = _labels(rng, "s", m)
    base = rng.sample(range(m), max(rows, cols))
    grid = []
    for r in range(rows):
        row = []
        for c in range(cols):
            members = {base[(r + c) % len(base)]}
            for x in range(m):
                if rng.random() < 0.3:
                    members.add(x)
            row.append([ground[x] for x in sorted(members)])
        grid.append(row)
    return {"ground": ground, "grid": grid}


def blocked_array(rng):
    """Two cells of one row that both hold only the same element."""
    arr = array_family(rng, 2, 3, 4)
    only = arr["ground"][0]
    arr["grid"][0][0] = [only]
    arr["grid"][0][1] = [only]
    return arr


def hyper_family(rng, feasible):
    vertices = [str(i) for i in range(1, 9)]
    members = []
    for _ in range(3):
        edges = []
        for _ in range(3):
            edges.append(sorted(rng.sample(vertices, rng.randint(1, 3)), key=int))
        members.append(edges)
    if feasible:  # plant disjoint edges
        members[0][0], members[1][0], members[2][0] = ["1", "2"], ["3", "4"], ["5", "6"]
    else:  # every edge of every member meets vertex 1
        members = [[sorted(set(e) | {"1"}, key=int) for e in edges] for edges in members]
    return {"vertices": vertices, "hypergraphs": members}


def _desk_mix(p, rng):
    f = p.write("sdr-ok.json", planted_family(rng, 8, 10, 2))
    p.op("sdr-ok", ["sdr", f])
    p.op("defect-ok", ["defect", f])
    bad = p.write("sdr-bad.json", violating_family(rng, 8, 10, 2, 4))
    p.op("sdr-bad", ["sdr", bad], expect="not-found")
    p.op("defect-bad", ["defect", bad])
    p.op("count-sdr", ["count-sdr", f], verify=False, known={"shape": "brute"})
    a = p.write("array-ok.json", array_family(rng, 3, 4, 6))
    p.op("array-sdr-ok", ["array-sdr", a])
    a = p.write("array-bad.json", blocked_array(rng))
    p.op("array-sdr-bad", ["array-sdr", a], expect="not-found", verify=False)
    g = p.write("bip.json", random_bipartite(rng, 20, 20, 2))
    p.op("matching", ["matching", g])
    p.op("cover", ["cover", g])
    graph = random_graph(rng, 30, 4)
    s, t = menger_pair(graph)
    gr = p.write("graph.json", graph)
    p.op("menger-vertex", ["menger", gr, "--source", s, "--sink", t, "--mode", "vertex"])
    p.op("menger-edge", ["menger", gr, "--source", s, "--sink", t, "--mode", "edge"])
    net = p.write("net.json", layered_network(rng, 3, 6, 3, 9))
    p.op("maxflow", ["maxflow", net])
    po = p.write("poset.json", block_poset(rng, 30, 10, 0.3))
    p.op("dilworth", ["dilworth", po])
    p.op("mirsky", ["mirsky", po])
    h = p.write("imperfect.json", imperfect_graph(rng, 8, 5))
    p.op("perfect-no", ["perfect", h], expect="not-found")
    b = p.write("bipartite-graph.json", bipartite_plain_graph(rng, 9))
    p.op("perfect-yes", ["perfect", b], verify=False)
    m = p.write("ds.json", doubly_stochastic(rng, 5, 6))
    p.op("birkhoff", ["birkhoff", m])
    entries, known = block_matrix(rng, (3, 4), rational=True)
    m = p.write("perm.json", {"n": 7, "entries": rational_rows(entries)})
    p.op("permanent", ["permanent", m], verify=False, known=known)
    n = rng.randint(5, 9)
    p.op("bounds", ["bounds", str(n), "--regular", str(rng.randint(1, n))], verify=False)
    r = p.write("rect.json", latin_rows(rng, 7, 3))
    p.op("latin-extend", ["latin-extend", r])
    r = p.write("rect2.json", latin_rows(rng, 8, 2))
    p.op("latin-complete", ["latin-complete", r])
    p.op("latin-count", ["latin-count", "4"], verify=False)
    for v in (7, 13):
        d = p.write(f"design-{v}.json", cyclic_design(rng, v))
        p.op(f"youden-{v}", ["youden", d])
    _rado_ops(p, rng)
    _coset_ops(p, rng)
    hf = p.write("hyper-ok.json", hyper_family(rng, True))
    p.op("hyper-sdr-ok", ["hyper-sdr", hf])
    hf = p.write("hyper-bad.json", hyper_family(rng, False))
    p.op("hyper-sdr-bad", ["hyper-sdr", hf], expect="not-found", verify=False)


def _rado_ops(p, rng):
    cases = [
        ("graphic", graphic_instance(rng, 12, 30, 8, 3), "any"),
        ("linear", linear_instance(rng, 6, 14, 6, 3, 7), "any"),
        ("partition", partition_instance(rng, 6, 3, 5, 4), "any"),
        ("graphic-deficient", graphic_instance(rng, 7, 15, 8, 3), "not-found"),
        ("linear-deficient", linear_instance(rng, 4, 12, 6, 3, 5), "not-found"),
        # Rank-deficient graphic case with 30 sets over 117 edges, the same
        # for every seed.  The augmenting search fails fast; the violator
        # must still be found.
        ("graphic-30", graphic_instance(random.Random("graphic-30"), 30, 117, 30, 4),
         "not-found"),
    ]
    for name, (family, matroid), expect in cases:
        f = p.write(f"rado-{name}-family.json", family)
        m = p.write(f"rado-{name}-matroid.json", matroid)
        p.op(f"rado-{name}", ["rado", f, m], expect=expect)


def _coset_ops(p, rng):
    s3 = perm_group([(2, 1, 3), (2, 3, 1)], 3)
    s4 = perm_group([(2, 1, 3, 4), (2, 3, 4, 1)], 4)
    d5 = perm_group([(2, 3, 4, 5, 1), (5, 4, 3, 2, 1)], 5)
    d6 = perm_group([(2, 3, 4, 5, 6, 1), (6, 5, 4, 3, 2, 1)], 6)
    a4 = perm_group([(2, 3, 1, 4), (1, 3, 4, 2)], 4)
    cases = [
        ("s3", s3, [[2, 1, 3]]),
        ("s4", s4, [[2, 1, 3, 4]]),
        ("s4-klein", s4, [[2, 1, 4, 3], [3, 4, 1, 2]]),
        ("d5", d5, [[5, 4, 3, 2, 1]]),
        ("d6", d6, [[4, 5, 6, 1, 2, 3]]),
        ("a4", a4, [[2, 3, 1, 4]]),
    ]
    for name, group, gens in cases:
        f = p.write(f"group-{name}.json", group)
        p.op(f"cosets-{name}", ["cosets", f, "--generators", json.dumps(gens)])
    table, labels = _cyclic_table(rng, 12)
    f = p.write("group-c12.json", table)
    p.op("cosets-c12", ["cosets", f, "--generators", json.dumps([labels[4]])])


def _cyclic_table(rng, n):
    labels = [f"c{k}" for k in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    pos = {k: i for i, k in enumerate(order)}
    table = [[pos[(a + b) % n] for b in order] for a in order]
    return {"elements": [labels[k] for k in order], "table": table}, labels


_BUILDERS = {
    "matching-large": _matching_large,
    "assign-many": _assign_many,
    "count-exp": _count_exp,
    "desk-mix": _desk_mix,
}
