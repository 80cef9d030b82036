"""Independent brute-force oracles and exhaustive generators.

Everything here is deliberately written from first principles (enumeration,
backtracking, union scans) and never calls the library's solvers, so the
tests compare two genuinely different computations.  The one exception is
`rematch_lex_least`, the earlier lex-least algorithm built on the library's
matching engine, kept as a reference for the incremental one.
"""

from __future__ import annotations

from itertools import combinations, permutations

from transversal import _bitmatch


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


def rematch_lex_least(row_masks, n_cols):
    """The greedy lex-least assignment that re-runs a full maximum matching
    of the later rows for every candidate column."""
    n_rows = len(row_masks)
    match_row, _ = _bitmatch.max_matching(row_masks, n_cols)
    if any(c == _bitmatch.UNMATCHED for c in match_row):
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
            rest_match, _ = _bitmatch.max_matching(rest, n_cols)
            if all(m != _bitmatch.UNMATCHED for m in rest_match):
                chosen.append(c)
                used |= low
                break
            mask ^= low
        else:
            return None
    return chosen


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
    """Permanent as the raw sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
            if not prod:
                break
        total += prod
    return total


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
    from fractions import Fraction

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
