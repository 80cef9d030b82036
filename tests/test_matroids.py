import random
from itertools import combinations

import pytest

from oracles import (all_families, brute_sdr_exists, brute_sir_exists, gf_rank, is_forest,
                     validate_matroid)
from transversal import _bitmatch, core, matroids
from transversal.errors import ResourceLimitError, ValidationError


def triangle():
    return matroids.graphic_matroid({"e1": ("u", "v"), "e2": ("v", "w"), "e3": ("w", "u")})


class TestBuilders:
    def test_uniform(self):
        m = matroids.uniform_matroid("abcd", 2)
        assert m.independent({"a", "b"})
        assert not m.independent({"a", "b", "c"})

    def test_free_is_full_uniform(self):
        m = matroids.free_matroid("abc")
        assert m.independent({"a", "b", "c"})

    def test_graphic_triangle(self):
        m = triangle()
        assert all(m.independent(set(pair)) for pair in combinations(m.ground, 2))
        assert not m.independent({"e1", "e2", "e3"})

    def test_graphic_rejects_loop(self):
        with pytest.raises(ValidationError):
            matroids.graphic_matroid({"e": ("u", "u")})

    def test_linear_over_f5(self):
        m = matroids.linear_matroid({"a": (1, 0), "b": (0, 1), "c": (1, 1)}, 5)
        assert all(m.independent(set(pair)) for pair in combinations("abc", 2))
        assert not m.independent({"a", "b", "c"})

    def test_linear_rejects_composite_modulus(self):
        with pytest.raises(ValidationError):
            matroids.linear_matroid({"a": (1,)}, 6)

    def test_partition(self):
        m = matroids.partition_matroid([["a", "b"], ["c", "d"]], [1, 2])
        assert m.independent({"a", "c", "d"})
        assert not m.independent({"a", "b"})

    def test_partition_rejects_overlap(self):
        with pytest.raises(ValidationError):
            matroids.partition_matroid([["a"], ["a"]], [1, 1])

    def test_make_matroid_dispatch(self):
        m = matroids.make_matroid("uniform", ground="ab", rank=1)
        assert m.kind == "uniform"
        with pytest.raises(ValidationError):
            matroids.make_matroid("mystery")
        m = matroids.make_matroid("graphic", graph={"e1": ["u", "v"]})
        assert m.kind == "graphic"
        with pytest.raises(ValidationError) as err:
            matroids.make_matroid("uniform", ground="ab")
        assert err.value.field == "rank"
        with pytest.raises(ValidationError) as err:
            matroids.matroid_from_json({"kind": "graphic"})
        assert err.value.field == "graph"


class TestRank:
    def test_empty(self):
        assert matroids.rank(matroids.uniform_matroid("abcd", 2), set()) == 0

    def test_full_uniform(self):
        assert matroids.rank(matroids.uniform_matroid("abcd", 2), set("abcd")) == 2

    def test_triangle_edges(self):
        assert matroids.rank(triangle(), {"e1", "e2", "e3"}) == 2

    def test_outside_ground_rejected(self):
        with pytest.raises(ValidationError):
            matroids.rank(triangle(), {"nope"})

    def test_monotone_and_submodular(self):
        fixtures = [
            matroids.uniform_matroid("abcdef", 3),
            matroids.partition_matroid([["a", "b", "c"], ["d", "e", "f"]], [1, 2]),
            matroids.graphic_matroid(
                {"1": ("u", "v"), "2": ("v", "w"), "3": ("w", "u"), "4": ("w", "x")}
            ),
            matroids.linear_matroid(
                {"a": (1, 0, 0), "b": (0, 1, 0), "c": (1, 1, 0), "d": (0, 0, 1)}, 3
            ),
        ]
        rng = random.Random(2024)
        for m in fixtures:
            ground = list(m.ground)
            for _ in range(120):
                x = {g for g in ground if rng.random() < 0.5}
                y = {g for g in ground if rng.random() < 0.5}
                rx, ry = m.rank_of(x), m.rank_of(y)
                if x <= y:
                    assert rx <= ry
                assert m.rank_of(x | y) + m.rank_of(x & y) <= rx + ry


class TestValidateMatroid:
    def test_uniform_passes(self):
        assert validate_matroid(matroids.uniform_matroid("abcd", 2)) == (True, None)

    def test_free_passes(self):
        assert validate_matroid(matroids.free_matroid("ab")) == (True, None)

    def test_exchange_failure_witnessed(self):
        collection = {
            frozenset(),
            frozenset("a"),
            frozenset("b"),
            frozenset("ab"),
            frozenset("c"),
        }
        m = matroids.MatroidOracle("abc", lambda s: s in collection)
        ok, witness = validate_matroid(m)
        assert not ok
        assert witness["axiom"] == "exchange"
        assert witness["a"] == ("c",)
        assert set(witness["b"]) == {"a", "b"}

    def test_downward_failure_witnessed(self):
        m = matroids.MatroidOracle("ab", lambda s: len(s) != 1)
        ok, witness = validate_matroid(m)
        assert not ok
        assert witness["axiom"] == "downward-closure"

    def test_empty_collection_witnessed(self):
        m = matroids.MatroidOracle("a", lambda s: False)
        ok, witness = validate_matroid(m)
        assert not ok and witness["axiom"] == "nonempty"

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError):
            validate_matroid(matroids.free_matroid(range(11)))


class TestRadoCheck:
    def test_free_matroid_reduces_to_hall(self):
        fam = core.SetFamily([1, 2, 3], [[1, 2], [2, 3], [3, 1]])
        free = matroids.free_matroid([1, 2, 3])
        status, result, diagnostics = matroids.rado_check(fam, free)
        assert (status, diagnostics) == ("found", "independent representatives found")
        assert matroids.verify_rado(fam, free, result) == (True, None)

    def test_triangle_three_copies(self):
        fam = core.SetFamily(["e1", "e2", "e3"], [["e1", "e2", "e3"]] * 3)
        status, result, diagnostics = matroids.rado_check(fam, triangle())
        assert (status, diagnostics) == ("not-found", "rank 2 below 3 sets")
        assert result["indices"] == [0, 1, 2]
        assert result["rank"] == 2
        assert triangle().rank_of(result["union"]) == result["rank"]
        assert matroids.verify_rado(fam, triangle(), result) == (True, None)

    def test_triangle_two_copies(self):
        fam = core.SetFamily(["e1", "e2", "e3"], [["e1", "e2", "e3"]] * 2)
        status, result, _ = matroids.rado_check(fam, triangle())
        assert status == "found"
        assert matroids.verify_rado(fam, triangle(), result) == (True, None)

    def test_ground_mismatch_rejected(self):
        fam = core.SetFamily(["x"], [["x"]])
        for check in (matroids.rado_check, matroids.check_ground):
            with pytest.raises(ValidationError) as caught:
                check(fam, triangle())
            assert caught.value.field == "ground"
        assert matroids.check_ground(core.SetFamily(["e1"], [["e1"]]), triangle()) is None

    def test_strategies_agree_random(self):
        rng = random.Random(808)
        oracles = [
            matroids.free_matroid("abcde"),
            matroids.uniform_matroid("abcde", 2),
            matroids.partition_matroid([["a", "b"], ["c", "d", "e"]], [1, 1]),
            matroids.graphic_matroid(
                {"a": (1, 2), "b": (2, 3), "c": (3, 1), "d": (3, 4), "e": (4, 1)}
            ),
            matroids.linear_matroid(
                {"a": (1, 0), "b": (0, 1), "c": (1, 1), "d": (2, 2), "e": (0, 2)}, 5
            ),
        ]
        for m in oracles:
            ground = list(m.ground)
            for _ in range(120):
                n = rng.randint(0, 4)
                sets = [
                    rng.sample(ground, rng.randint(1, len(ground))) for _ in range(n)
                ]
                fam = core.SetFamily(ground, sets)
                status, fast, _ = matroids.rado_check(fam, m)
                assert (status == "found") == brute_sir_exists(fam.sets, m)
                assert matroids.verify_rado(fam, m, fast) == (True, None)

    def test_free_agrees_with_hall_exhaustive(self):
        ground = (1, 2, 3)
        free = matroids.free_matroid(ground)
        for n in range(4):
            for sets in all_families(n, ground):
                fam = core.SetFamily(ground, sets)
                status, _, _ = matroids.rado_check(fam, free)
                assert (status == "found") == brute_sdr_exists(sets)


def random_matroid(rng, kind, n_elements):
    """A seeded graphic, linear or partition matroid on `n_elements` labels."""
    labels = [f"x{k}" for k in range(n_elements)]
    if kind == "graphic":
        n_vertices = rng.randint(6, 8)
        pairs = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
        return matroids.graphic_matroid(dict(zip(labels, rng.sample(pairs, n_elements))))
    if kind == "linear":
        p, width = rng.choice((2, 3)), rng.randint(5, 8)
        return matroids.linear_matroid(
            {x: [rng.randrange(p) for _ in range(width)] for x in labels}, p)
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, n_elements), rng.randint(1, 4)))
    blocks = [labels[a:b] for a, b in zip([0, *cuts], [*cuts, n_elements])]
    return matroids.partition_matroid(blocks, [rng.randint(1, len(b)) for b in blocks])


def seeded_graphic_family(n_sets):
    """Sets of five random edges of a seeded random simple graph with 120
    vertices and 360 edges."""
    rng = random.Random(110)
    pairs = set()
    while len(pairs) < 360:
        u, v = rng.sample(range(120), 2)
        pairs.add((min(u, v), max(u, v)))
    edges = {f"e{k}": pair for k, pair in enumerate(sorted(pairs))}
    sets = [rng.sample(list(edges), 5) for _ in range(n_sets)]
    return core.SetFamily(list(edges), sets), matroids.graphic_matroid(edges)


def count_searches_and_matchings(monkeypatch):
    """Wrap the exchange search and the matching engine.  Returns three
    lists: the path each search found (None when it failed), the number of
    representatives each search reached over an exchange arc, and the row
    count of each matching."""
    search, engine = matroids._exchange_path, _bitmatch.max_matching
    paths, arcs, matchings = [], [], []

    def counted_search(current, *rest):
        paths.append(search(current, *rest))
        arcs.append(sum(x in rest[-1] for x in current))
        return paths[-1]

    def counted_engine(*args):
        matchings.append(len(args[0]))
        return engine(*args)

    monkeypatch.setattr(matroids, "_exchange_path", counted_search)
    monkeypatch.setattr(_bitmatch, "max_matching", counted_engine)
    return paths, arcs, matchings


class TestRadoAtScale:
    def test_sweep_agrees_with_brute_force(self, monkeypatch):
        """5-8 sets over 8-12 elements, enough for exchange searches to walk
        arcs and for paths to swap representatives; every verdict against
        backtracking, every certificate re-checked.  Each matroid runs
        twice: as built, and as a custom `MatroidOracle` over its predicate."""
        paths, arcs, _ = count_searches_and_matchings(monkeypatch)
        rng = random.Random(5812)
        verdicts = {(kind, found): 0 for kind in ("graphic", "linear", "partition")
                    for found in (True, False)}
        for trial in range(600):
            kind = ("graphic", "linear", "partition")[trial % 3]
            m = random_matroid(rng, kind, rng.randint(8, 12))
            ground = list(m.ground)
            sets = [rng.sample(ground, rng.randint(2, 3)) for _ in range(rng.randint(5, 8))]
            fam = core.SetFamily(ground, sets)
            result = matroids.rado_check(fam, m)
            found = result[0] == "found"
            assert found == brute_sir_exists(fam.sets, m), (kind, sets)
            verdicts[kind, found] += 1
            # The same matroid known by its predicate alone runs on the
            # generic basis, and gives the same certificate.  Its searches,
            # and those of the solve whose payload is checked, are left out
            # of the path and arc counts below.
            searched = len(paths)
            assert matroids.verify_rado(fam, m, result[1]) == (True, None)
            custom = matroids.MatroidOracle(ground, m._indep)
            asked = matroids.rado_check(fam, custom)
            assert (asked[0] == "found") == brute_sir_exists(fam.sets, custom)
            assert repr(asked) == repr(result)
            del paths[searched:], arcs[searched:]
        assert all(count >= 50 for count in verdicts.values()), verdicts
        assert sum(len(p) >= 3 for p in paths if p) >= 25
        assert sum(count > 0 for count in arcs) >= 40

    def test_one_matching_per_exchange_search(self, monkeypatch):
        """A matching per search, one for the representatives and one for a
        violator: no matching per exchange arc.  On the 110-set family the
        greedy start takes 109 representatives, so one search is left."""
        paths, _, matchings = count_searches_and_matchings(monkeypatch)
        fam, m = seeded_graphic_family(110)
        status, result, _ = matroids.rado_check(fam, m)
        assert status == "found"
        assert len(paths) == 1 and len(matchings) <= 3
        assert matroids.verify_rado(fam, m, result) == (True, None)
        rng = random.Random(7)
        for _ in range(40):
            m = random_matroid(rng, rng.choice(("graphic", "linear", "partition")), 10)
            ground = list(m.ground)
            fam = core.SetFamily(ground, [rng.sample(ground, 3) for _ in range(7)])
            paths.clear()
            matchings.clear()
            matroids.rado_check(fam, m)
            assert len(matchings) <= len(paths) + 2


def exchange_only_rado(family, m, lengths):
    """`rado_check` with no greedy start: `current` grows from empty by
    `matroids._exchange_path` alone, one search per representative.  Appends
    the length of every path found to `lengths`.  Returns the payload."""
    n = family.n
    if n == 0:
        return {"reps": []}
    containing = {}
    for i, s in enumerate(family.sets):
        for x in s:
            containing[x] = containing.get(x, 0) | 1 << i
    candidates = [x for x in family.ground if x in containing]
    current, reached = [], {}
    while len(current) < n:
        reached.clear()
        path = matroids._exchange_path(current, candidates, m, containing, n, reached)
        if path is None:
            return matroids._violator_from_cut(family, m, reached)
        lengths.append(len(path))
        chosen = set(current) ^ set(path)
        current = [x for x in candidates if x in chosen]
    match_row, match_col = _bitmatch.max_matching([containing[x] for x in current], n)
    return {"reps": [current[match_col[i]] for i in range(n)]}


class TestGreedyStart:
    def test_same_result_as_exchange_searches_alone(self):
        """The greedy start adds what exchange paths of length one would, so
        the representatives, the violator and the cut it is read from are
        those of the searches alone."""
        rng = random.Random(1986)
        lengths = []
        cases = [seeded_graphic_family(n) for n in (40, 110, 200, 300)]
        for trial in range(400):
            kind = ("graphic", "linear", "partition", "uniform")[trial % 4]
            n_elements = rng.randint(8, 10)
            if kind == "uniform":
                m = matroids.uniform_matroid([f"x{k}" for k in range(n_elements)],
                                             rng.randint(3, 8))
            else:
                m = random_matroid(rng, kind, n_elements)
            ground = list(m.ground)
            sets = [rng.sample(ground, rng.randint(2, 3)) for _ in range(rng.randint(4, 7))]
            cases.append((core.SetFamily(ground, sets), m))
        found = {True: 0, False: 0}
        for fam, m in cases:
            status, result, _ = matroids.rado_check(fam, m)
            assert repr(result) == repr(exchange_only_rado(fam, m, lengths))
            found[status == "found"] += 1
        assert found[True] >= 50 and found[False] >= 50, found
        assert sum(length >= 3 for length in lengths) >= 10


KINDS = ("free", "uniform", "partition", "graphic", "linear", "custom")


def matroid_and_brute(rng, kind, n_elements):
    """A seeded matroid of `kind` on `n_elements` labels, and its
    independence predicate written from the oracles alone: a forest test,
    Gaussian elimination from scratch, block counts, a size test.  The
    custom kind is a `MatroidOracle` over the forest test."""
    labels = [f"x{k}" for k in range(n_elements)]
    if kind in ("graphic", "custom"):
        n_vertices = rng.randint(5, 8)
        pairs = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
        edges = dict(zip(labels, rng.sample(pairs, min(n_elements, len(pairs)))))

        def brute(s):
            return is_forest([edges[e] for e in s])

        if kind == "custom":
            return matroids.MatroidOracle(list(edges), brute), brute
        return matroids.graphic_matroid(edges), brute
    if kind == "linear":
        p, width = rng.choice((2, 3, 5)), rng.randint(2, 6)
        cols = {x: [rng.randrange(-p, p) for _ in range(width)] for x in labels}
        return (matroids.linear_matroid(cols, p),
                lambda s: gf_rank([cols[x] for x in s], p) == len(s))
    if kind == "partition":
        cuts = sorted(rng.sample(range(1, n_elements), rng.randint(1, 3)))
        blocks = [labels[a:b] for a, b in zip([0, *cuts], [*cuts, n_elements])]
        caps = [rng.randint(0, len(b)) for b in blocks]
        return (matroids.partition_matroid(blocks, caps),
                lambda s: all(sum(x in b for x in s) <= c for b, c in zip(blocks, caps)))
    if kind == "uniform":
        k = rng.randint(0, n_elements)
        return matroids.uniform_matroid(labels, k), lambda s: len(s) <= k
    return matroids.free_matroid(labels), lambda s: True


class TestBasis:
    @pytest.mark.parametrize("kind", KINDS)
    def test_circuits_against_brute_force(self, kind):
        """For a random independent I and every outsider y: y is addable
        exactly when I + y is independent, and otherwise its circuit holds
        exactly the x in I for which I - x + y is independent."""
        rng = random.Random(f"circuit-{kind}")
        dependent = 0
        for _ in range(60):
            m, brute = matroid_and_brute(rng, kind, rng.randint(4, 10))
            order = list(m.ground)
            rng.shuffle(order)
            basis, members = m.basis(), []
            for x in order:
                if rng.random() < 0.8 and brute(members + [x]):
                    basis.add(x)
                    members.append(x)
            assert basis.members == members
            for y in m.ground:
                if y in members:
                    continue
                assert basis.independent_with(y) == brute(members + [y])
                circuit = basis.circuit(y)
                if brute(members + [y]):
                    assert circuit is None
                    continue
                dependent += 1
                expect = {x for x in members if brute([z for z in members if z != x] + [y])}
                assert {x for x in members if x in circuit} == expect, (members, y)
                if kind != "custom":
                    assert set(circuit) == expect
        assert dependent >= (0 if kind == "free" else 40)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rank_against_brute_force(self, kind):
        """`rank_of` is the size of a largest subset the brute predicate
        calls independent, found by trying every subset."""
        rng = random.Random(f"rank-{kind}")
        for _ in range(40):
            m, brute = matroid_and_brute(rng, kind, rng.randint(4, 10))
            subset = [x for x in m.ground if rng.random() < 0.7]
            best = next(k for k in range(len(subset), -1, -1)
                        if any(brute(list(t)) for t in combinations(subset, k)))
            assert m.rank_of(subset) == best


class TestNoPredicateCall:
    def test_built_in_kinds(self):
        """With a built-in kind, `rado_check`, `rank_of` and `verify_rado`
        on a violator run on the basis alone: a counter wrapped round the
        predicate reads 0.  The same matroid known only by its predicate
        does call it."""
        rng = random.Random(31)
        cases = [(*seeded_graphic_family(110), "graphic"), (*seeded_graphic_family(300), "graphic")]
        for trial in range(150):
            kind = KINDS[trial % 5]
            m, _ = matroid_and_brute(rng, kind, rng.randint(6, 10))
            ground = list(m.ground)
            sets = [rng.sample(ground, rng.randint(1, 3)) for _ in range(rng.randint(2, 7))]
            cases.append((core.SetFamily(ground, sets), m, kind))
        verdicts = set()
        for fam, m, kind in cases:
            for counted in (m, matroids.MatroidOracle(m.ground, m._indep)):
                calls = []
                indep = counted._indep
                counted._indep = lambda s, indep=indep: calls.append(s) or indep(s)
                status, result, _ = matroids.rado_check(fam, counted)
                counted.rank_of(fam.ground)
                if status == "not-found":
                    assert matroids.verify_rado(fam, counted, result) == (True, None)
                if counted is m:
                    assert calls == [], kind
                    verdicts.add((kind, status == "found"))
                elif fam.n:
                    assert calls
        assert verdicts == {(kind, found) for kind in KINDS[:5] for found in (True, False)}


class TestCrossKind:
    def test_graphic_and_signed_incidence_agree(self):
        """A graph's cycle matroid, given as `graphic` and as `linear` over
        the signed incidence vectors of its edges, gives the same
        certificate: certificates depend only on the matroid and the ground
        order."""
        rng = random.Random(1942)
        found = {True: 0, False: 0}
        for trial in range(240):
            n_vertices = rng.randint(4, 9) if trial % 8 else 24
            pairs = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
            edges = dict(enumerate(rng.sample(pairs, min(len(pairs), 3 * n_vertices))))
            ground = list(edges)
            n_sets = rng.randint(n_vertices - 3, n_vertices + 1)
            fam = core.SetFamily(ground, [rng.sample(ground, rng.randint(2, 4))
                                          for _ in range(n_sets)])
            graphic = matroids.rado_check(fam, matroids.graphic_matroid(edges))
            for p in (3, 5):
                incidence = {e: [(w == u) - (w == v) for w in range(n_vertices)]
                             for e, (u, v) in edges.items()}
                linear = matroids.rado_check(fam, matroids.linear_matroid(incidence, p))
                assert repr(linear) == repr(graphic)
            found[graphic[0] == "found"] += 1
        assert min(found.values()) >= 40, found


class TestGraphicOracle:
    @pytest.mark.parametrize("labels", ["int", "str", "one-and-true"])
    def test_agrees_with_forest_count(self, labels):
        """Random subsets of random simple graphs against edge and vertex
        counts per component; 1 and True are one vertex, as in a dict."""
        rng = random.Random(labels)
        for _ in range(60):
            n_vertices = rng.randint(2, 9)
            names = {"int": list(range(n_vertices)),
                     "str": [f"v{k}" for k in range(n_vertices)],
                     "one-and-true": ["a", 1, "b", "c", 2, "d", "e", "f", "g"]}[labels]
            pairs = list(combinations(names[:n_vertices], 2))
            edges = dict(enumerate(rng.sample(pairs, rng.randint(1, min(12, len(pairs))))))
            if labels == "one-and-true":  # vertex 1 is named 1 on some edges, True on others
                edges = {k: tuple(rng.choice((1, True)) if x == 1 else x for x in pair)
                         for k, pair in edges.items()}
            m = matroids.graphic_matroid(edges)
            for _ in range(20):
                subset = {e for e in edges if rng.random() < 0.6}
                assert m.independent(subset) == is_forest([edges[e] for e in subset])

    def test_long_path(self):
        """A 20,000-edge path is a forest, and one more edge closing it
        makes a cycle: the union-find runs in loops, so no length of path
        costs interpreter stack."""
        path = {k: (k, k + 1) for k in range(20_000)}
        m = matroids.graphic_matroid({**path, "close": (0, 20_000)})
        assert m.independent(set(path))
        assert not m.independent(set(m.ground))
        assert is_forest(path.values())
