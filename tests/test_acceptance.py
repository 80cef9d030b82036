"""Acceptance suite: one test per criterion, each checked against an
independent oracle at its stated tolerance (exact unless noted).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Everything is deterministic: random instances use fixed seeds.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

from oracles import (
    all_families,
    all_poset_masks,
    brute_defect,
    brute_longest_chain,
    brute_max_antichain,
    brute_min_cover_bipartite,
    brute_permanent,
    brute_sdr_exists,
    brute_sir_exists,
    coefficient_sum,
    connected_without,
    count_latin_squares_by_rows,
    cyclic_group,
    decomposition_matrix,
    decomposition_terms,
    dihedral_group,
    edges_of_mask,
    graphs_up_to_iso,
    hall_coset_reps,
    is_symmetric_bibd,
    random_doubly_stochastic_rows,
    symmetric_group,
    table_is_perfect,
    uniform_matrix,
)
from transversal import birkhoff, core, graphs, groups, hypersdr, latin, matroids, posets
from transversal.graphs import Graph

GROUND4 = (1, 2, 3, 4)


def iter_families4():
    for n in range(5):
        yield from all_families(n, GROUND4)


# 1. ------------------------------------------------------------------------


def test_hall_oracle_equivalence():
    """Existence verdict equals brute-force search on every family with at
    most four sets over a four-element ground set; certificates re-validate."""
    checked = 0
    for sets in iter_families4():
        family = core.SetFamily(GROUND4, sets)
        status, payload, _ = core.hall_check(family)
        assert (status == "found") == ("reps" in payload) == brute_sdr_exists(sets)
        assert core.verify_sdr(family, payload) == (True, None)
        checked += 1
    assert checked == 69905


# 2. ------------------------------------------------------------------------


def test_konig_equality():
    """Maximum matching size equals the brute-force minimum vertex cover on
    every bipartite graph with equal parts of size at most four, and the
    emitted cover achieves it."""
    for k in range(1, 5):
        slots = [(a, b) for a in range(k) for b in range(k)]
        b_names = [f"b{j}" for j in range(k)]
        for bits in range(1 << (k * k)):
            edges = [(a, b_names[b]) for s, (a, b) in enumerate(slots) if (bits >> s) & 1]
            g = graphs.BipartiteGraph(range(k), b_names, edges)
            payload = graphs.konig_cover(g)[1]
            assert graphs.verify_cover(g, payload) == (True, None)  # one size for both sides
            adj = [0] * k
            for a, b in edges:
                adj[a] |= 1 << int(b[1:])
            assert payload["size"] == brute_min_cover_bipartite(adj, k, k)


# 3. ------------------------------------------------------------------------


def test_defect_form():
    """Reported defect equals the enumerated worst shortfall, exactly."""
    for sets in iter_families4():
        family = core.SetFamily(GROUND4, sets)
        report = core.partial_sdr(family)[1]
        assert report["defect"] == brute_defect(sets, GROUND4)
        assert len(report["partial"]) == family.n - report["defect"]
        seen = set()
        for i, x in report["partial"].items():
            assert x in family.sets[int(i)] and x not in seen
            seen.add(x)


# 4. ------------------------------------------------------------------------


def _validate_path_system(g, s, t, mode, payload):
    paths, cut = payload["paths"], payload["cut"]
    assert payload["count"] == len(paths)
    seen_edges = set()
    seen_inner = set()
    for path in paths:
        assert path[0] == s and path[-1] == t and len(set(path)) == len(path)
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
        assert s not in cut and t not in cut
        assert not connected_without(g.vertices, g.edges, s, t, removed_vertices=cut)
    assert len(paths) == len(cut)


def test_menger_equality():
    """Path count equals cut size in both modes on fixtures plus 200 random
    graphs of at most eight vertices; both sides independently validated."""
    fixtures = [
        (Graph("sat", [("s", "a"), ("a", "t")]), "s", "t"),
        (
            Graph("sabct", [("s", "a"), ("s", "b"), ("s", "c"),
                            ("a", "t"), ("b", "t"), ("c", "t")]),
            "s",
            "t",
        ),
        (Graph("abcd", [("a", "b"), ("c", "d")]), "a", "c"),
    ]
    for g, s, t in fixtures:
        for mode in ("edge", "vertex"):
            _validate_path_system(g, s, t, mode, graphs.menger_paths(g, s, t, mode)[1])
    rng = random.Random(48813)
    done = 0
    while done < 200:
        n = rng.randint(2, 8)
        vertices = list(range(n))
        edges = [e for e in combinations(vertices, 2) if rng.random() < 0.45]
        g = Graph(vertices, edges)
        s, t = rng.sample(vertices, 2)
        _validate_path_system(g, s, t, "edge", graphs.menger_paths(g, s, t, "edge")[1])
        non_adjacent = [
            (u, v) for u, v in combinations(vertices, 2) if not g.adjacent(u, v)
        ]
        if not non_adjacent:
            continue
        s, t = non_adjacent[rng.randrange(len(non_adjacent))]
        _validate_path_system(g, s, t, "vertex", graphs.menger_paths(g, s, t, "vertex")[1])
        done += 1


# 5. ------------------------------------------------------------------------


def test_dilworth_and_mirsky():
    """Chain partition size equals the brute-force maximum antichain, and
    level count equals the brute-force longest chain, on every labelled
    poset with at most five elements."""
    for n in range(6):
        for above in all_poset_masks(n):
            pairs = [
                (i, j) for i in range(n) for j in range(n) if (above[i] >> j) & 1
            ]
            p = posets.Poset(range(n), pairs)
            payload = posets.dilworth(p)[1]
            assert posets.verify_dilworth(p, payload) == (True, None)  # as many chains
            assert len(payload["antichain"]) == brute_max_antichain(above, n)
            payload = posets.mirsky(p)[1]
            assert posets.verify_mirsky(p, payload) == (True, None)  # as many levels
            assert len(payload["chain"]) == brute_longest_chain(above, n)


# 6. ------------------------------------------------------------------------


def test_perfect_graph_coherence():
    """The odd-hole search gives the subset tables' verdict and witness on
    every graph with at most seven vertices (labelled-exhaustive to six,
    one representative per isomorphism class plus relabelings at seven),
    and every comparability graph of a poset on at most six elements
    reports perfect."""
    verdicts = {}
    for n in range(7):
        slots = list(combinations(range(n), 2))
        table = {}
        for bits in range(1 << len(slots)):
            edges = [slots[k] for k in range(len(slots)) if (bits >> k) & 1]
            g = Graph(range(n), edges)
            payload = posets.is_perfect(g)[1]
            assert payload == table_is_perfect(g)
            table[bits] = payload["perfect"]
        verdicts[n] = table
    # Seven vertices: every graph is isomorphic to one representative;
    # relabelings guard against any vertex-order dependence of the verdict
    # and of the least-mask witness.
    rng = random.Random(7777)
    relabelings = [tuple(rng.sample(range(7), 7)) for _ in range(3)]
    classes7 = graphs_up_to_iso(7)[7]
    assert len(classes7) == 1044
    for mask in classes7:
        base_edges = edges_of_mask(mask, 7)
        g = Graph(range(7), base_edges)
        payload = posets.is_perfect(g)[1]
        assert payload == table_is_perfect(g)
        for p in relabelings:
            h = Graph(range(7), [(p[u], p[v]) for u, v in base_edges])
            relabelled = posets.is_perfect(h)[1]
            assert relabelled["perfect"] == payload["perfect"]
            assert relabelled == table_is_perfect(h)
    # Comparability graphs of small posets are always perfect.
    for n in range(7):
        slots = {pair: k for k, pair in enumerate(combinations(range(n), 2))}
        seen = set()
        for above in all_poset_masks(n):
            bits = 0
            for i in range(n):
                for j in range(i + 1, n):
                    if (above[i] >> j) & 1 or (above[j] >> i) & 1:
                        bits |= 1 << slots[(i, j)]
            seen.add(bits)
        for bits in seen:
            assert verdicts[n][bits] is True


# 7. ------------------------------------------------------------------------


def test_birkhoff_reconstruction():
    """100 random rational doubly stochastic matrices up to order six:
    exact reconstruction, unit coefficient sum, and the support term bound,
    all in exact arithmetic."""
    rng = random.Random(190501)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = birkhoff.RationalMatrix(random_doubly_stochastic_rows(rng, n))
        assert birkhoff.is_doubly_stochastic(m) == (True, None)
        nnz = sum(1 for row in m.entries for x in row if x)
        decomposition = birkhoff.birkhoff_decompose(m)[1]
        assert decomposition_matrix(decomposition, n) == m
        assert coefficient_sum(decomposition) == Fraction(1)
        assert all(c > 0 for c, _ in decomposition_terms(decomposition))
        assert len(decomposition["terms"]) <= nnz - n + 1


# 8. ------------------------------------------------------------------------


def test_permanent_equivalence():
    """Inclusion-exclusion equals the factorial-sum oracle on every 0/1
    matrix up to order four and on 100 random rational matrices of order
    six; exact equality."""
    for n in range(1, 5):
        for bits in range(1 << (n * n)):
            rows = [
                [(bits >> (i * n + j)) & 1 for j in range(n)] for i in range(n)
            ]
            assert birkhoff.permanent(birkhoff.RationalMatrix(rows)) == brute_permanent(rows)
    rng = random.Random(271828)
    for _ in range(100):
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
            for _ in range(6)
        ]
        assert birkhoff.permanent(birkhoff.RationalMatrix(rows)) == brute_permanent(rows)


# 9. ------------------------------------------------------------------------


def test_van_der_waerden_bound():
    """Permanents of 100 random doubly stochastic matrices up to order six
    meet the factorial bound, with exact equality exactly at the uniform
    matrix."""
    rng = random.Random(314159)
    for n in range(1, 7):
        uniform = uniform_matrix(n)
        assert birkhoff.permanent(uniform) == birkhoff.vdw_bound(n)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = birkhoff.RationalMatrix(random_doubly_stochastic_rows(rng, n))
        value = birkhoff.permanent(m)
        bound = birkhoff.vdw_bound(n)
        assert value >= bound
        if m != uniform_matrix(n):
            assert value > bound


# 10. -----------------------------------------------------------------------


def test_regular_family_bound():
    """Every r-regular bipartite graph on parts of size at most four has at
    least (r/n)^n n! perfect matchings restricted to one side, and an SDR
    always exists."""
    for n in range(1, 5):
        for r in range(1, n + 1):
            bound = birkhoff.regular_matching_bound(n, r)
            found = 0
            for bits in range(1 << (n * n)):
                rows = [
                    [(bits >> (i * n + j)) & 1 for j in range(n)] for i in range(n)
                ]
                if any(sum(row) != r for row in rows):
                    continue
                if any(sum(rows[i][j] for i in range(n)) != r for j in range(n)):
                    continue
                found += 1
                count = brute_permanent(rows)
                assert count >= bound
                family = core.SetFamily(
                    range(n), [[j for j in range(n) if rows[i][j]] for i in range(n)]
                )
                status, payload, _ = core.hall_check(family)
                assert status == "found" and "reps" in payload
                assert core.verify_sdr(family, payload) == (True, None)
            assert found > 0


# 11. -----------------------------------------------------------------------


def test_latin_counts():
    """Exhaustive square counts match the independent row-permutation
    oracle for orders one to five and beat the lower bound."""
    expected = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}
    for n in range(1, 6):
        oracle = count_latin_squares_by_rows(n)
        assert oracle == expected[n]
        assert latin.count_latin_squares(n) == oracle
        assert oracle >= latin.latin_lower_bound(n)


# 12. -----------------------------------------------------------------------


def test_latin_extension():
    """Every Latin rectangle with fewer rows than columns (orders up to
    four) gains a row, and every completion validates."""

    def rectangles(m, n):
        perms = [tuple(x + 1 for x in p) for p in permutations(range(n))]

        def descend(rows):
            if len(rows) == m:
                yield latin.LatinRectangle(n, rows)
                return
            for p in perms:
                if all(p[c] != prior[c] for prior in rows for c in range(n)):
                    yield from descend(rows + [p])

        yield from descend([])

    for n in range(1, 5):
        for m in range(n):
            for rect in rectangles(m, n):
                extended = latin.extend_row(rect)
                assert extended.m == m + 1 and extended.rows[:m] == rect.rows
                square = latin.complete(rect)
                assert square.is_square and square.rows[:m] == rect.rows


# 13. -----------------------------------------------------------------------


def test_youden_constructions():
    """The Fano-plane array validates, as do arrays built from twenty
    random cyclic equireplicate designs with as many blocks as points."""
    fano = latin.BlockDesign(
        range(1, 8),
        [[1, 2, 4], [2, 3, 5], [3, 4, 6], [4, 5, 7], [5, 6, 1], [6, 7, 2], [7, 1, 3]],
    )
    assert is_symmetric_bibd(fano)
    payload = {"array": [list(row) for row in latin.youden_from_design(fano)]}
    assert latin.verify_youden(fano, payload) == (True, None)
    rng = random.Random(60221023)
    for _ in range(20):
        v = rng.randint(1, 7)
        k = rng.randint(1, v)
        base = rng.sample(range(v), k)
        blocks = [[(x + shift) % v for x in base] for shift in range(v)]
        design = latin.BlockDesign(range(v), blocks)
        assert design.v == design.b and design.replication == k
        payload = {"array": [list(row) for row in latin.youden_from_design(design)]}
        assert latin.verify_youden(design, payload) == (True, None)


# 14. -----------------------------------------------------------------------


def test_rado_equivalence():
    """Free-matroid verdicts equal the plain Hall check on the exhaustive
    family set; for uniform, partition, graphic, and linear matroids on six
    elements the augmenting search matches brute-force representative
    search (exhaustive families of up to two sets, seeded samples of three
    and four)."""
    free = matroids.free_matroid(GROUND4)
    for sets in iter_families4():
        family = core.SetFamily(GROUND4, sets)
        status, payload, _ = matroids.rado_check(family, free)
        assert status == core.hall_check(family)[0]
        assert matroids.verify_rado(family, free, payload) == (True, None)

    oracles_by_kind = {
        "uniform": matroids.uniform_matroid("abcdef", 3),
        "partition": matroids.partition_matroid([["a", "b", "c"], ["d", "e", "f"]], [1, 2]),
        "graphic": matroids.graphic_matroid(
            {
                "a": (1, 2), "b": (1, 3), "c": (1, 4),
                "d": (2, 3), "e": (2, 4), "f": (3, 4),
            }
        ),
        "linear": matroids.linear_matroid(
            {
                "a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1),
                "d": (1, 1, 0), "e": (0, 1, 1), "f": (1, 2, 1),
            },
            3,
        ),
    }
    rng = random.Random(65537)
    for kind, oracle in oracles_by_kind.items():
        ground = list(oracle.ground)
        subsets = []
        for k in range(1, len(ground) + 1):
            subsets.extend(combinations(ground, k))
        small = [()]
        small.extend((s,) for s in subsets)
        small.extend((s, t) for s in subsets for t in subsets)
        cases = [list(map(list, sets)) for sets in small]
        for _ in range(400):
            n = rng.randint(3, 4)
            cases.append(
                [rng.sample(ground, rng.randint(1, 6)) for _ in range(n)]
            )
        for sets in cases:
            family = core.SetFamily(ground, sets)
            status, payload, _ = matroids.rado_check(family, oracle)
            expected = brute_sir_exists(family.sets, oracle)
            assert (status == "found") == expected, (kind, sets)
            assert matroids.verify_rado(family, oracle, payload) == (True, None)


# 15. -----------------------------------------------------------------------


def _all_subgroups(g):
    start = groups.subgroup_closure(g, [])
    found = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for h in frontier:
            inside = set(h)
            for x in g.elements:
                if x in inside:
                    continue
                bigger = groups.subgroup_closure(g, list(h) + [x])
                if bigger not in found:
                    found.add(bigger)
                    fresh.append(bigger)
        frontier = fresh
    return sorted(found, key=len)


def test_coset_representatives():
    """For every subgroup of every fixture group of order at most 24, the
    simultaneous representatives hit each left and each right coset exactly
    once, and so do those of the Hall route; the family read off the double
    cosets is the family of meets, and it always passes the Hall check."""
    fixture_groups = [
        cyclic_group(n) for n in (1, 2, 3, 4, 5, 6, 8, 12)
    ]
    fixture_groups += [
        groups.FiniteGroup(
            "eabc", [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        ),
        symmetric_group(3),
        symmetric_group(4),
        dihedral_group(3),
        dihedral_group(4),
        dihedral_group(5),
        dihedral_group(6),
        groups.FiniteGroup.from_permutations([(2, 3, 1, 4), (2, 1, 4, 3)], 4),  # A4
    ]
    subgroup_total = 0
    for g in fixture_groups:
        assert g.order <= 24
        for h in _all_subgroups(g):
            family = groups.coset_family(g, h)
            meets, hall_reps = hall_coset_reps(g, h)
            assert family.sets == meets.sets
            assert core.hall_check(family)[0] == "found"
            payload = groups.coset_system(g, h)[1]
            assert groups.verify_cosets(g, h, payload) == (True, None)
            hall = {**payload, "reps": list(hall_reps)}
            assert groups.verify_cosets(g, h, hall) == (True, None)
            subgroup_total += 1
    assert subgroup_total > 100


# 16. -----------------------------------------------------------------------


def test_hypergraph_sufficiency():
    """Over singleton-edge families (exhaustive: up to three hypergraphs,
    up to three edges each, five vertices) the SDR search matches the plain
    Hall verdict; over a seeded sample of general families within the same
    ceiling, the matching condition implies the search succeeds."""
    vertices = [1, 2, 3, 4, 5]
    small_sets = []
    for k in range(4):
        small_sets.extend(combinations(vertices, k))
    for n in range(4):
        for sets in product(small_sets, repeat=n):
            fam = hypersdr.HypergraphFamily(
                vertices, [[[x] for x in s] for s in sets]
            )
            status, found, _ = hypersdr.find_hyper_sdr(fam)
            assert (status == "found") == brute_sdr_exists(sets)
            if status == "found":
                assert hypersdr.verify_hyper_sdr(fam, found) == (True, None)
                reps = [e[0] for e in found["selection"]]
                family = core.SetFamily(vertices, sets)
                assert core.verify_sdr(family, {"reps": reps}) == (True, None)
    pool = [list(c) for k in (1, 2, 3) for c in combinations(vertices, k)]
    rng = random.Random(100003)
    implications = 0
    for _ in range(3000):
        m = rng.randint(0, 3)
        lists = [rng.sample(pool, rng.randint(1, 3)) for _ in range(m)]
        fam = hypersdr.HypergraphFamily(vertices, lists)
        holds, witness = hypersdr.ah_condition(fam)
        status, found, _ = hypersdr.find_hyper_sdr(fam)
        if holds:
            assert status == "found"
            implications += 1
        if status == "not-found":
            assert not holds and found == {"witness": list(witness)}
        else:
            assert hypersdr.verify_hyper_sdr(fam, found) == (True, None)
    assert implications > 100
