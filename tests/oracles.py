"""Independent brute-force oracles and exhaustive generators.

Everything here is deliberately written from first principles (enumeration,
backtracking, union scans) and never calls the library's solvers, so the
tests compare two genuinely different computations.  A few are the simple
algorithms the library used before faster ones replaced them, kept as
references: `bfs_max_matching` (one breadth-first augmenting path per row),
`rematch_lex_least` (a full re-matching per candidate column),
`probe_lex_least` (one breadth-first probe search per candidate column),
`fraction_birkhoff` (Birkhoff rounds in Fraction arithmetic, each from a
fresh matching), `round_by_round_peel` (the weighted peeling rounds, each
a whole lex-least assignment from the last answer),
`fraction_verify_birkhoff` (the Birkhoff certificate check
summed in Fractions), `fraction_is_doubly_stochastic` (the doubly
stochastic check summed in Fractions), `fraction_entry` (an entry parsed
to a Fraction, as every entry was before the pair parser), `column_set_sums` (the permanent
kernel's column-set walk, one set at a time with no grouping), `edmonds_karp` (one breadth-first search per augmenting
path), `warshall_closure` (the n^2 closure loop) and `gf_rank` (Gaussian
elimination over a prime field, from scratch per call).  The cross-check paths at the end
reach the same answer as a library solver through another part of the
library: `hall_via_menger` (a flow), `hall_from_dilworth` (a chain partition)
and `hall_coset_reps` (the marriage theorem, for simultaneous coset
representatives).  Then come the exhaustive checks the command line never
runs: `is_pinned`, `validate_matroid`, the subset tables that
`posets.is_perfect` used before its odd-hole search, kept as its reference
(`clique_table`, `chromatic_table` with its clique bound and early stop,
`exhaustive_chromatic_table` with every colour class searched, and
`table_is_perfect`, which compares the first two), and
`comparability_graph`.  Last come
references and constructors that only tests use: `EagerFamily` and
`EagerGraph` (every mask and label tuple made at construction), the
Birkhoff payload readers `decomposition_terms`, `decomposition_matrix` and
`coefficient_sum`, the matrices
`identity_matrix` and `uniform_matrix`, `group_mul` and `group_inverse`,
the groups `cyclic_group`, `symmetric_group` and `dihedral_group`, and
`is_symmetric_bibd`.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from operator import add

from transversal import _bitmatch, birkhoff, core, graphs, groups, posets
from transversal.errors import ResourceLimitError, ValidationError

UNMATCHED = -1


def brute_sdr_exists(sets) -> bool:
    """Backtracking over raw element choices, no matching theory."""
    sets = [list(s) for s in sets]

    def descend(i, used):
        if i == len(sets):
            return True
        for x in sets[i]:
            if x not in used:
                if descend(i + 1, used | {x}):
                    return True
        return False

    return descend(0, frozenset())


def brute_sir_exists(sets, oracle) -> bool:
    """Backtracking over raw element choices, each checked by the matroid's
    independence oracle; no exchange graph."""

    def descend(i, used):
        if i == len(sets):
            return True
        for x in sets[i]:
            if x in used or not oracle.independent(used | {x}):
                continue
            if descend(i + 1, used | {x}):
                return True
        return False

    return descend(0, frozenset())


def is_forest(pairs) -> bool:
    """Whether the edges `pairs` hold no cycle: every connected component
    they span has one edge fewer than it has vertices.  Components are
    found by breadth-first search; no union-find."""
    adjacent = {}
    for u, v in pairs:
        adjacent.setdefault(u, []).append(v)
        adjacent.setdefault(v, []).append(u)
    seen = set()
    for start in adjacent:
        if start in seen:
            continue
        seen.add(start)
        component, queue = [start], deque([start])
        while queue:
            for w in adjacent[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    component.append(w)
                    queue.append(w)
        edge_count = sum(len(adjacent[x]) for x in component) // 2
        if edge_count != len(component) - 1:
            return False
    return True


def gf_rank(vectors, p) -> int:
    """Rank of `vectors` over GF(p), by Gauss-Jordan elimination from
    scratch on a copy reduced mod p."""
    rows = [[x % p for x in v] for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [(x - f * y) % p for x, y in zip(rows[k], rows[r])]
        r += 1
    return r


def brute_lex_least(row_masks, n_cols):
    """Lexicographically least injective row-to-column assignment, or None,
    by backtracking over columns in ascending order: the first complete
    assignment found is the least."""

    def descend(i, used, acc):
        if i == len(row_masks):
            return acc
        for c in range(n_cols):
            if (row_masks[i] >> c) & 1 and c not in used:
                found = descend(i + 1, used | {c}, acc + [c])
                if found is not None:
                    return found
        return None

    return descend(0, frozenset(), [])


def bfs_max_matching(row_masks, n_cols):
    """(match_of_row, match_of_col) of a maximum matching, found by one
    breadth-first search for an augmenting path out of each row in turn.
    Unmatched entries are -1, as in the library's engine."""
    match_row = [UNMATCHED] * len(row_masks)
    match_col = [UNMATCHED] * n_cols
    for start in range(len(row_masks)):
        parent = {}
        queue = deque([start])
        end = None
        while queue and end is None:
            r = queue.popleft()
            mask = row_masks[r]
            while mask:
                low = mask & -mask
                mask ^= low
                c = low.bit_length() - 1
                if c in parent:
                    continue
                parent[c] = r
                if match_col[c] == UNMATCHED:
                    end = c
                    break
                queue.append(match_col[c])
        while end is not None:
            r = parent[end]
            previous = match_row[r]
            match_row[r] = end
            match_col[end] = r
            end = previous if previous != UNMATCHED else None
    return match_row, match_col


def rematch_lex_least(row_masks, n_cols):
    """The greedy lex-least assignment that re-runs a full maximum matching
    of the later rows for every candidate column."""
    n_rows = len(row_masks)
    match_row, _ = bfs_max_matching(row_masks, n_cols)
    if UNMATCHED in match_row:
        return None
    chosen = []
    used = 0
    for i in range(n_rows):
        mask = row_masks[i] & ~used
        while mask:
            low = mask & -mask
            c = low.bit_length() - 1
            blocked = used | low
            rest = [row_masks[j] & ~blocked for j in range(i + 1, n_rows)]
            rest_match, _ = bfs_max_matching(rest, n_cols)
            if UNMATCHED not in rest_match:
                chosen.append(c)
                used |= low
                break
            mask ^= low
        else:
            return None
    return chosen


def probe_lex_least(row_masks, n_cols):
    """The lex-least assignment by probe searches on one kept matching.

    Rows are fixed in ascending order.  Row i lets go of its column and
    tries its unused columns c in ascending order: a free c is taken at
    once, and an occupied c is taken when its holder finds an alternating
    path, avoiding the fixed columns and c, to a free column.  Most probes
    fail on large squares, each after walking all it can reach.
    """
    n_rows = len(row_masks)
    match_row, match_col = bfs_max_matching(row_masks, n_cols)
    if UNMATCHED in match_row:
        return None
    used = 0
    for i in range(n_rows):
        match_col[match_row[i]] = UNMATCHED
        mask = row_masks[i] & ~used
        while mask:
            low = mask & -mask
            mask ^= low
            c = low.bit_length() - 1
            holder = match_col[c]
            if holder == UNMATCHED:
                break
            match_row[holder] = match_col[c] = UNMATCHED
            if _augment_bfs(row_masks, match_row, match_col, holder, ~(used | low)):
                break
            match_row[holder] = c
            match_col[c] = holder
        match_row[i] = c
        match_col[c] = i
        used |= low
    return match_row


def fraction_birkhoff(entries):
    """Birkhoff terms ((coefficient, permutation), ...) of a doubly
    stochastic matrix of Fractions, by the round loop on Fractions: each
    round rebuilds the support masks, takes their lex-least permutation by
    `probe_lex_least`, and subtracts it scaled by its least entry until the
    coefficients sum to 1."""
    n = len(entries)
    work = [list(row) for row in entries]
    terms = []
    remaining = Fraction(1) if n else Fraction(0)
    while remaining > 0:
        masks = [sum(1 << j for j, x in enumerate(row) if x) for row in work]
        perm = probe_lex_least(masks, n)
        mu = min(work[i][perm[i]] for i in range(n))
        terms.append((mu, tuple(perm)))
        for i, j in enumerate(perm):
            work[i][j] -= mu
        remaining -= mu
    return tuple(terms)


def round_by_round_peel(row_masks, n_cols, weights):
    """The terms of the weighted `_bitmatch.peel`, as a list, by rounds that
    carry nothing but a start: each round is a whole
    `lex_least_assignment` from the last answer less the entries it brought
    to zero, and every weight on the answer drops by mu in turn.  This is
    how the weighted rounds ran before they kept their state."""
    col_rows = _bitmatch._column_rows(row_masks, n_cols)
    start = None
    terms = []
    while any(row_masks):
        assignment = _bitmatch.lex_least_assignment(row_masks, n_cols, start, col_rows)
        mu = min(row[c] for row, c in zip(weights, assignment))
        terms.append((mu, tuple(assignment)))
        for r, c in enumerate(assignment):
            weights[r][c] -= mu
            if not weights[r][c]:
                row_masks[r] &= ~(1 << c)
                col_rows[c] &= ~(1 << r)
                assignment[r] = UNMATCHED
        start = assignment
    return terms


def fraction_verify_birkhoff(m, cert):
    """`birkhoff.verify_birkhoff` with the coefficients and the rebuilt
    matrix summed in Fractions: the same checks, in the same order, with the
    same reasons."""
    columns = {j: j for j in range(m.n)}
    terms = []
    for k, term in enumerate(core._cert_field(cert, "terms")):
        if not isinstance(term, dict):
            raise ValidationError(f"terms[{k}] must be an object", field=f"terms[{k}]")
        perm = core._cert_field(term, "permutation", index=columns)
        if len(perm) != m.n or len(set(perm)) != m.n:
            return False, f"term {k} is not a permutation of 0..{m.n - 1}"
        terms.append((birkhoff._to_fraction(term.get("coefficient"), f"terms[{k}]"),
                      tuple(columns[j] for j in perm)))
    if any(c <= 0 for c, _ in terms):
        return False, "coefficients must be positive"
    if sum((c for c, _ in terms), Fraction(0)) != 1:
        return False, "coefficients do not sum to 1"
    acc = [[Fraction(0)] * m.n for _ in range(m.n)]
    for coefficient, perm in terms:
        for i in range(m.n):
            acc[i][perm[i]] += coefficient
    if birkhoff.RationalMatrix(acc) != m:
        return False, "terms do not reconstruct the matrix"
    if cert.get("term_bound") != birkhoff.term_bound(m):
        return False, "term_bound differs from the bound of the matrix"
    if len(terms) > birkhoff.term_bound(m):
        return False, "more terms than the support allows"
    return True, None


def fraction_is_doubly_stochastic(m):
    """`birkhoff.is_doubly_stochastic` with the row and column sums taken in
    Fractions: the same checks, in the same order, with the same reasons."""
    for i, row in enumerate(m.entries):
        for j, x in enumerate(row):
            if x < 0:
                return False, f"entry ({i},{j}) is negative"
    for i, row in enumerate(m.entries):
        total = sum(row, Fraction(0))
        if total != 1:
            return False, f"row {i} sums to {total}"
    for j in range(m.n):
        total = sum((row[j] for row in m.entries), Fraction(0))
        if total != 1:
            return False, f"column {j} sums to {total}"
    return True, None


def fraction_entry(value, where):
    """A matrix entry or coefficient as a Fraction, by the parser that built
    one per entry: the same values, error classes and messages as
    `birkhoff._to_pair` must give."""
    if isinstance(value, bool):
        raise ValidationError(f"{where}: booleans are not rationals", field=where)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        digits = value[1:] if value[:1] in ("+", "-") else value
        if digits.isascii() and digits.isdigit() and len(digits) <= 4300:
            return Fraction(int(value))
        exponent = value.replace("_", "").lower().partition("e")[2].strip().lstrip("+-")
        many = len(value) > 4300 and sum(c.isdecimal() for c in value) > 4300
        if many or (exponent.isdecimal() and int(exponent) > 4300):
            raise ResourceLimitError(f"{where}: {value[:20]!r}... has over 4300 digits or exponent")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{where}: cannot parse {value!r}", field=where) from exc
    raise ValidationError(f"{where}: unsupported type {type(value).__name__}", field=where)


def _augment_bfs(row_masks, match_row, match_col, start, allowed):
    """Grow the matching by one alternating path out of free row `start`,
    entering only the columns set in `allowed`.  On failure the matching is
    left unchanged."""
    parent = {}
    queue = deque([start])
    while queue:
        r = queue.popleft()
        mask = row_masks[r] & allowed
        while mask:
            low = mask & -mask
            mask ^= low
            c = low.bit_length() - 1
            if c in parent:
                continue
            parent[c] = r
            holder = match_col[c]
            if holder == UNMATCHED:
                while True:
                    r2 = parent[c]
                    previous = match_row[r2]
                    match_row[r2] = c
                    match_col[c] = r2
                    if previous == UNMATCHED:
                        return True
                    c = previous
            queue.append(holder)
    return False


def edmonds_karp(n_nodes, arcs, s, t):
    """Edmonds-Karp: one breadth-first search per augmenting path.

    Same contract as `graphs._edmonds_karp`: ``arcs`` is a list of (u, v,
    capacity) triples over node indices, and the result is (value, flow per
    arc, residual-reachable node set).  Arcs are scanned in input order, so
    the flow is deterministic.
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


def brute_all_sdrs(sets):
    """Every SDR tuple, by exhaustive enumeration."""
    sets = [list(s) for s in sets]
    out = []

    def descend(i, used, acc):
        if i == len(sets):
            out.append(tuple(acc))
            return
        for x in sets[i]:
            if x not in used:
                descend(i + 1, used | {x}, acc + [x])

    descend(0, frozenset(), [])
    return out


def brute_defect(sets, ground) -> int:
    """max over index groups K of |K| - |union of K|, clamped at zero."""
    n = len(sets)
    best = 0
    for k in range(1, n + 1):
        for group in combinations(range(n), k):
            union = set()
            for i in group:
                union |= set(sets[i])
            best = max(best, k - len(union))
    return best


def all_families(n, ground):
    """Every family of exactly n subsets of `ground` (tuples of tuples)."""
    ground = tuple(ground)
    subsets = []
    for k in range(len(ground) + 1):
        subsets.extend(combinations(ground, k))

    def descend(i, acc):
        if i == n:
            yield tuple(acc)
            return
        for s in subsets:
            acc.append(s)
            yield from descend(i + 1, acc)
            acc.pop()

    yield from descend(0, [])


def brute_min_cover_bipartite(adj, na, nb) -> int:
    """Minimum vertex cover size of a bipartite graph.

    ``adj[a]`` is the bitmask of B-neighbours of A-vertex a.  For every
    choice of A-side vertices the forced B-side is the union of neighbours
    of the unchosen, so 2^na scans suffice and stay exact.
    """
    best = na + nb
    for picked_a in range(1 << na):
        needed = 0
        for a in range(na):
            if not (picked_a >> a) & 1:
                needed |= adj[a]
        size = bin(picked_a).count("1") + bin(needed).count("1")
        if size < best:
            best = size
    return best


def brute_permanent(rows):
    """Permanent as the raw sum over injective maps of the rows into the
    columns: over permutations when the matrix is square."""
    n = len(rows)
    total = 0
    for perm in permutations(range(len(rows[0]) if rows else 0), n):
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
            if not prod:
                break
        total += prod
    return total


def brute_matching_counts(rows, width):
    """counts[k]: the k-matchings of the 0/1 pattern `rows`, one bitmask of
    `width` columns per row, by trying every k of the rows against every
    ordered choice of k distinct columns."""
    return [sum(all(rows[i] >> j & 1 for i, j in zip(picked, cols))
                for picked in combinations(range(len(rows)), k)
                for cols in permutations(range(width), k))
            for k in range(len(rows) + 1)]


def column_set_sums(start, cols, limit):
    """by_size[k]: the sum, over the k-sets T of `cols` with k <= `limit`,
    of the product of the row sums `start` + (sum of the columns in T);
    each set walked on its own, depth first on an explicit stack."""
    m = len(cols)
    by_size = [0] * (limit + 1)
    by_size[0] = prod(start)
    # (row sums of T, first column T may add, |T|)
    stack = [(start, 0, 0)] if limit else []
    while stack:
        sums, first, size = stack.pop()
        size += 1
        total = 0
        for j in range(first, m):
            child = list(map(add, sums, cols[j]))
            total += prod(child)
            if size < limit and j + 1 < m:
                stack.append((child, j + 1, size))
        by_size[size] += total
    return by_size


# ---------------------------------------------------------------------------
# Posets: labelled generation and brute decompositions.


def all_poset_masks(n):
    """All labelled strict partial orders on 0..n-1, as `above` mask tuples.

    Element k is added to each smaller poset with every compatible pair
    (down-set of predecessors, up-set of successors), so each labelled
    poset arises exactly once.  above[i] holds bit j iff i < j.
    """
    results = [()]
    for k in range(n):
        grown = []
        for above in results:
            below = [0] * k
            for i in range(k):
                for j in range(k):
                    if (above[i] >> j) & 1:
                        below[j] |= 1 << i
            down_sets = [
                d for d in range(1 << k)
                if all((below[i] & ~d) == 0 for i in range(k) if (d >> i) & 1)
            ]
            up_sets = [
                u for u in range(1 << k)
                if all((above[i] & ~u) == 0 for i in range(k) if (u >> i) & 1)
            ]
            for d in down_sets:
                for u in up_sets:
                    if u & d:
                        continue
                    # every predecessor must already lie below every successor
                    if any((above[i] & u) != u for i in range(k) if (d >> i) & 1):
                        continue
                    new_above = []
                    for i in range(k):
                        row = above[i]
                        if (d >> i) & 1:
                            row |= 1 << k
                        new_above.append(row)
                    new_above.append(u)
                    grown.append(tuple(new_above))
        results = grown
    return results


def warshall_closure(succ):
    """Transitive closure of successor masks by Warshall's n^2 loop: row i
    gains row k's successors whenever k is among them.  A cycle shows as a
    row holding its own bit."""
    above = list(succ)
    n = len(above)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if above[i] & bit:
                above[i] |= above[k]
    return above


def brute_max_antichain(above, n) -> int:
    best = 0
    for mask in range(1 << n):
        ok = True
        bits = [i for i in range(n) if (mask >> i) & 1]
        for a in bits:
            if above[a] & mask:
                ok = False
                break
        if ok and len(bits) > best:
            best = len(bits)
    return best


def brute_longest_chain(above, n) -> int:
    best = 0
    for mask in range(1 << n):
        bits = [i for i in range(n) if (mask >> i) & 1]
        ok = True
        for a in bits:
            for b in bits:
                if a != b and not ((above[a] >> b) & 1 or (above[b] >> a) & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok and len(bits) > best:
            best = len(bits)
    return best


# ---------------------------------------------------------------------------
# Undirected-graph helpers.


def connected_without(vertices, edges, s, t, removed_edges=(), removed_vertices=()):
    """Is t reachable from s after deleting the given edges and vertices?"""
    removed_edges = {frozenset(e) for e in removed_edges}
    removed_vertices = set(removed_vertices)
    adj = {v: set() for v in vertices}
    for u, v in edges:
        if frozenset((u, v)) in removed_edges:
            continue
        if u in removed_vertices or v in removed_vertices:
            continue
        adj[u].add(v)
        adj[v].add(u)
    if s in removed_vertices or t in removed_vertices:
        return False
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                if v == t:
                    return True
                seen.add(v)
                stack.append(v)
    return t in seen


def random_doubly_stochastic_rows(rng, n, terms=None):
    """Rows of a random normalised positive combination of permutation
    matrices (exact Fractions)."""
    if terms is None:
        terms = rng.randint(1, n * n)
    perms = []
    for _ in range(terms):
        p = list(range(n))
        rng.shuffle(p)
        perms.append(tuple(p))
    weights = [rng.randint(1, 12) for _ in perms]
    total = sum(weights)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for w, p in zip(weights, perms):
        for i in range(n):
            rows[i][p[i]] += Fraction(w, total)
    return rows


def graphs_up_to_iso(n_max):
    """dict n -> sorted canonical edge-bitmasks, one per isomorphism class.

    Grown by attaching a new vertex to every smaller class representative
    with every neighbourhood; candidates are canonicalised by minimising
    the edge bitmask over all vertex permutations (numpy-vectorised).
    """
    import numpy as np

    def perm_edge_table(n):
        pairs = list(combinations(range(n), 2))
        idx = {p: k for k, p in enumerate(pairs)}
        perms = list(permutations(range(n)))
        table = np.empty((len(perms), len(pairs)), dtype=np.int64)
        for a, p in enumerate(perms):
            for k, (i, j) in enumerate(pairs):
                u, v = p[i], p[j]
                table[a, k] = idx[(u, v)] if u < v else idx[(v, u)]
        return table, len(pairs)

    classes = {0: [0]}
    if n_max >= 1:
        classes[1] = [0]
    for n in range(2, n_max + 1):
        table, m = perm_edge_table(n)
        weights = np.array([1 << k for k in range(m)], dtype=np.int64)
        pairs = list(combinations(range(n), 2))
        idx = {p: k for k, p in enumerate(pairs)}
        remap = [idx[p] for p in combinations(range(n - 1), 2)]
        seen = set()
        for parent in classes[n - 1]:
            base = 0
            for old_slot, new_slot in enumerate(remap):
                if (parent >> old_slot) & 1:
                    base |= 1 << new_slot
            for neighbourhood in range(1 << (n - 1)):
                mask = base
                for v in range(n - 1):
                    if (neighbourhood >> v) & 1:
                        mask |= 1 << idx[(v, n - 1)]
                bits = np.fromiter(
                    ((mask >> k) & 1 for k in range(m)), dtype=np.int64, count=m
                )
                seen.add(int((bits[table] @ weights).min()))
        classes[n] = sorted(seen)
    return classes


def edges_of_mask(mask, n):
    pairs = list(combinations(range(n), 2))
    return [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1]


def count_latin_squares_by_rows(n) -> int:
    """Independent Latin square count: rows drawn from all permutations,
    columns checked by masks."""
    perms = list(permutations(range(n)))
    count = 0

    def descend(row, col_masks):
        nonlocal count
        if row == n:
            count += 1
            return
        for p in perms:
            ok = True
            for c in range(n):
                if (col_masks[c] >> p[c]) & 1:
                    ok = False
                    break
            if ok:
                descend(row + 1, [col_masks[c] | (1 << p[c]) for c in range(n)])

    descend(0, [0] * n)
    return count


def family_to_graph(family: core.SetFamily) -> graphs.BipartiteGraph:
    """Bipartite view of a family: set indices on one side, ground on the other."""
    edges = []
    for i, members in enumerate(family.sets):
        for x in members:
            edges.append((i, x))
    return graphs.BipartiteGraph(range(family.n), family.ground, edges)


def graph_to_family(g: graphs.BipartiteGraph) -> core.SetFamily:
    """Inverse of family_to_graph: each part-A vertex becomes its neighbour set."""
    sets = []
    for a in g.part_a:
        sets.append([g.part_b[p] for p in g._cols[g._a_index[a]]])
    return core.SetFamily(g.part_b, sets)


def hall_via_menger(family: core.SetFamily):
    """Hall check through the two-extra-vertices flow reduction.

    A new source is joined to every set index and every ground element to a
    new sink, all capacities one; a full flow yields an SDR and a short one
    yields the same Dulmage-Mendelsohn violator as core.hall_check.  Exists
    as a cross-check path for core.hall_check, and gives the payload it
    gives.
    """
    n = family.n
    n_ground = len(family.ground)
    s = 0
    t = 1
    arcs = [(s, 2 + i, 1) for i in range(n)]
    sdr_arcs = []
    for i in range(n):
        for p in family._cols[i]:
            sdr_arcs.append((i, p))
            arcs.append((2 + i, 2 + n + p, 1))
    for p in range(n_ground):
        arcs.append((2 + n + p, t, 1))
    value, flows, _ = graphs._edmonds_karp(2 + n + n_ground, arcs, s, t)
    match_row = [_bitmatch.UNMATCHED] * n
    match_col = [_bitmatch.UNMATCHED] * n_ground
    for (i, p), f in zip(sdr_arcs, flows[n : n + len(sdr_arcs)]):
        if f:
            match_row[i] = p
            match_col[p] = i
    if value == n:
        return {"reps": [family.ground[c] for c in match_row]}
    return core._hall_violator(family, match_row, match_col)


def hall_from_dilworth(family: core.SetFamily):
    """Read an SDR off a Dilworth decomposition, or report none exists.

    The poset puts each element below every set that contains it.  When the
    family has an SDR the minimum chain partition has exactly |ground|
    chains, each set sitting atop its representative; any empty set
    degenerates the construction and is reported as an immediate failure.
    Returns the payload {"reps": [...]} or None.
    """
    if any(not s for s in family.sets):
        return None
    tagged = [("elt", x) for x in family.ground] + [("set", i) for i in range(family.n)]
    pairs = []
    for i, members in enumerate(family.sets):
        for x in members:
            pairs.append((("elt", x), ("set", i)))
    p = posets.Poset(tagged, pairs)
    chains = posets.dilworth(p)[1]["chains"]
    if len(chains) != len(family.ground):
        return None
    reps: dict = {}
    for chain in chains:
        if len(chain) == 2:
            (_, x), (_, i) = chain
            reps[i] = x
    if len(reps) != family.n:
        return None
    return {"reps": [reps[i] for i in range(family.n)]}


def hall_coset_reps(g, subgroup):
    """(family, reps) by the Hall route: the family of the right cosets that
    each left coset meets, an SDR of it from core.hall_check, and the least
    element of each chosen meet."""
    system = groups.coset_system(g, subgroup)[1]
    left, right = system["left"], system["right"]
    right_of = {x: j for j, coset in enumerate(right) for x in coset}
    family = core.SetFamily(range(len(left)), [{right_of[x] for x in coset} for coset in left])
    status, sdr, _ = core.hall_check(family)
    assert status == "found", "a coset family always has an SDR"
    reps = tuple(min(set(left[i]) & set(right[j]), key=g.elements.index)
                 for i, j in enumerate(sdr["reps"]))
    return family, reps


# Exhaustive checks that the command line never runs, kept to cross-check the
# library's constructions.

VALIDATE_CEILING = 10


def is_pinned(f_edges, k_edges) -> bool:
    """True when every edge of `f_edges` meets some edge of `k_edges`."""
    pins = [set(e) for e in k_edges]
    for edge in f_edges:
        e = set(edge)
        if not any(e & p for p in pins):
            return False
    return True


def validate_matroid(m, *, ceiling: int = VALIDATE_CEILING):
    """Exhaustively check the matroid axioms of a `matroids.MatroidOracle`:
    nonemptiness, downward closure, and exchange.

    Returns (True, None) or (False, witness) where the witness names the
    failing axiom and the offending set or pair.
    """
    ground = m.ground
    if len(ground) > ceiling:
        raise ResourceLimitError(f"{len(ground)} elements is above the ceiling {ceiling}")
    subsets = []
    for k in range(len(ground) + 1):
        subsets.extend(frozenset(c) for c in combinations(ground, k))
    status = {s: bool(m._indep(s)) for s in subsets}
    if not status[frozenset()]:
        return False, {"axiom": "nonempty", "set": ()}
    for s in subsets:
        if not status[s]:
            continue
        for x in s:
            if not status[s - {x}]:
                return False, {
                    "axiom": "downward-closure",
                    "set": tuple(sorted(s, key=m._index.get)),
                    "element": x,
                }
    independent = [s for s in subsets if status[s]]
    for a in independent:
        for b in independent:
            if len(b) <= len(a):
                continue
            if not any(status[a | {x}] for x in b - a):
                return False, {
                    "axiom": "exchange",
                    "a": tuple(sorted(a, key=m._index.get)),
                    "b": tuple(sorted(b, key=m._index.get)),
                }
    return True, None


def clique_table(adj, n):
    """Clique numbers of the 2^n induced subgraphs of a graph given by
    adjacency masks: omega(x) is the larger of omega(x - v) and
    1 + omega(x & N(v)), with v the lowest vertex of x."""
    size = 1 << n
    table = [0] * size
    for x in range(1, size):
        low = x & -x
        v = low.bit_length() - 1
        without = table[x ^ low]
        with_v = 1 + table[x & adj[v]]
        table[x] = with_v if with_v > without else without
    return table


def chromatic_table(adj, n, cliques):
    """Chromatic numbers of the 2^n induced subgraphs, from the clique
    table.  With v the lowest vertex of x, chi(x) is chi(x - v) or one more,
    and never below omega(x).  So a clique number above chi(x - v) settles
    chi(x) with no search; otherwise chi(x) = chi(x - v) exactly when some
    colour class I of v (an independent subset of x holding v) leaves
    chi(x - I) = chi(x - v) - 1, and the search stops at the first one.
    """
    size = 1 << n
    table = [0] * size
    for x in range(1, size):
        low = x & -x
        v = low.bit_length() - 1
        base = table[x ^ low]
        table[x] = base + 1
        if cliques[x] > base:
            continue
        stack = [(low, x & ~adj[v] & ~low)]
        while stack:
            chosen, candidates = stack.pop()
            if table[x & ~chosen] < base:
                table[x] = base
                break
            while candidates:
                bit = candidates & -candidates
                candidates ^= bit
                u = bit.bit_length() - 1
                stack.append((chosen | bit, candidates & ~adj[u]))
    return table


def table_is_perfect(g: graphs.Graph):
    """The payload of `posets.is_perfect` by the subset tables: "perfect"
    and "berge" true and no "witness", or both false and the witness
    vertices of the induced subgraph of fewest vertices, then least vertex
    mask, whose clique and chromatic numbers differ."""
    n = len(g.vertices)
    adj = g.adjacency_masks()
    cliques = clique_table(adj, n)
    chromatics = chromatic_table(adj, n, cliques)
    bad = [x for x in range(1 << n) if cliques[x] != chromatics[x]]
    if not bad:
        return {"perfect": True, "berge": True, "witness": None}
    witness = min(bad, key=lambda x: (x.bit_count(), x))
    return {"perfect": False, "berge": False,
            "witness": [g.vertices[i] for i in _bitmatch.bits_of(witness)]}


def exhaustive_chromatic_table(adj, n):
    """Chromatic numbers of the 2^n induced subgraphs of a graph given by
    adjacency masks: chi(x) is 1 + the least chi(x - I) over every colour
    class I of the lowest vertex v of x (an independent subset of x holding
    v), with no clique bound and no early stop."""
    table = [0] * (1 << n)
    for x in range(1, 1 << n):
        v = (x & -x).bit_length() - 1
        best = n + 1
        stack = [(1 << v, x & ~adj[v] & ~(1 << v))]
        while stack:
            chosen, candidates = stack.pop()
            best = min(best, table[x & ~chosen] + 1)
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                u = low.bit_length() - 1
                stack.append((chosen | low, candidates & ~adj[u]))
        table[x] = best
    return table


def comparability_graph(p: posets.Poset, complement: bool = False) -> graphs.Graph:
    """Graph joining comparable pairs (or incomparable ones)."""
    edges = []
    for a, b in combinations(p.elements, 2):
        if p.comparable(a, b) != complement:
            edges.append((a, b))
    return graphs.Graph(p.elements, edges)


# Reference constructors and operations that only tests use.


class EagerFamily:
    """A reference for `core.SetFamily` that makes the bitmask and the label
    tuple of every set at construction.  Each set's members are put in
    ground order by scanning its mask's binary digits, with no column list."""

    def __init__(self, ground, sets):
        self.ground = tuple(ground)
        position = {x: p for p, x in enumerate(self.ground)}
        self.masks = []
        for members in sets:
            mask = 0
            for x in members:
                mask |= 1 << position[x]
            self.masks.append(mask)
        self.sets = tuple(self._labels(mask) for mask in self.masks)

    def _labels(self, mask):
        digits = bin(mask)[:1:-1]  # lowest position first
        return tuple(x for x, digit in zip(self.ground, digits) if digit == "1")

    def union_of(self, indices):
        mask = 0
        for i in indices:
            mask |= self.masks[i]
        return self._labels(mask)

    def __hash__(self):
        return hash((self.ground, self.sets))

    def __repr__(self):
        return f"SetFamily(ground={self.ground!r}, sets={self.sets!r})"

    def to_json(self):
        return {"ground": list(self.ground), "sets": [list(s) for s in self.sets]}


class EagerGraph:
    """`graphs.BipartiteGraph` edges as a bitmask per part-A vertex, made
    at construction."""

    def __init__(self, part_a, part_b, edges):
        self.masks = {a: 0 for a in part_a}
        position = {b: p for p, b in enumerate(part_b)}
        for a, b in edges:
            self.masks[a] |= 1 << position[b]
        self.position = position

    def has_edge(self, a, b):
        if a not in self.masks or b not in self.position:
            return False
        return (self.masks[a] >> self.position[b]) & 1 == 1


def decomposition_terms(payload):
    """The ((coefficient, permutation), ...) of a `birkhoff` payload, in
    Fractions and tuples."""
    return tuple((Fraction(t["coefficient"]), tuple(t["permutation"])) for t in payload["terms"])


def decomposition_matrix(payload, n):
    """The n-by-n matrix a `birkhoff` payload's terms sum to, in Fractions."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for coefficient, perm in decomposition_terms(payload):
        for i in range(n):
            rows[i][perm[i]] += coefficient
    return birkhoff.RationalMatrix(rows)


def coefficient_sum(payload):
    return sum((c for c, _ in decomposition_terms(payload)), Fraction(0))


def identity_matrix(n):
    return birkhoff.RationalMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def uniform_matrix(n):
    return birkhoff.RationalMatrix([[Fraction(1, n)] * n for _ in range(n)])


def group_mul(g, a, b):
    """The product of a and b in the `groups.FiniteGroup` g."""
    return g.elements[g._product(g._index[a], g._index[b])]


def group_inverse(g, a):
    """The element whose product with a is the identity, found by search."""
    return next(x for x in g.elements if group_mul(g, a, x) == g.identity)


def cyclic_group(n):
    shift = tuple(list(range(2, n + 1)) + [1])
    return groups.FiniteGroup.from_permutations([shift], n)


def symmetric_group(n):
    if n == 1:
        return groups.FiniteGroup.from_permutations([(1,)], 1)
    swap = tuple([2, 1] + list(range(3, n + 1)))
    cycle = tuple(list(range(2, n + 1)) + [1])
    return groups.FiniteGroup.from_permutations([swap, cycle], n)


def dihedral_group(n):
    """Symmetries of an n-gon, as permutations of its corners (order 2n)."""
    rotation = tuple(list(range(2, n + 1)) + [1])
    reflection = tuple(((n - i) % n) + 1 for i in range(n))
    return groups.FiniteGroup.from_permutations([rotation, reflection], n)


def is_symmetric_bibd(design):
    """v = b, constant block size, and every point pair in a constant number
    of blocks."""
    if design.v != design.b or design.block_size is None or design.replication is None:
        return False
    blocks = [set(block) for block in design.blocks]
    lambdas = {sum(1 for block in blocks if x in block and y in block)
               for x, y in combinations(design.points, 2)}
    return len(lambdas) <= 1

